type tag_class = Universal | Application | Context_specific | Private
type tag = { cls : tag_class; constructed : bool; number : int }
type t = Prim of tag * string | Cons of tag * t list
type 'a or_error = ('a, string) result

let ( let* ) = Result.bind

(* Universal tag numbers used by X.509. *)
let tn_boolean = 1
let tn_integer = 2
let tn_bit_string = 3
let tn_octet_string = 4
let tn_null = 5
let tn_oid = 6
let tn_utf8 = 12
let tn_sequence = 16
let tn_set = 17
let tn_printable = 19
let tn_ia5 = 22
let tn_utc_time = 23
let tn_generalized_time = 24

let utag ?(constructed = false) number =
  { cls = Universal; constructed; number }

let boolean b = Prim (utag tn_boolean, if b then "\xff" else "\x00")

let integer_of_int v =
  (* Minimal two's-complement big-endian content octets. *)
  let rec octets v acc =
    let low = v land 0xFF in
    let rest = v asr 8 in
    let acc = Char.chr low :: acc in
    if (rest = 0 && low < 0x80) || (rest = -1 && low >= 0x80) then acc
    else octets rest acc
  in
  let chars = octets v [] in
  let b = Bytes.create (List.length chars) in
  List.iteri (Bytes.set b) chars;
  Prim (utag tn_integer, Bytes.unsafe_to_string b)

let integer_bytes s =
  if String.length s = 0 then invalid_arg "Der.integer_bytes: empty";
  Prim (utag tn_integer, s)

let bit_string ?(unused = 0) s =
  if unused < 0 || unused > 7 then invalid_arg "Der.bit_string: unused bits";
  Prim (utag tn_bit_string, String.make 1 (Char.chr unused) ^ s)

let octet_string s = Prim (utag tn_octet_string, s)
let null = Prim (utag tn_null, "")

let oid o =
  let buf = Buffer.create 8 in
  let encode_base128 v =
    let rec chunks v acc = if v = 0 then acc else chunks (v lsr 7) ((v land 0x7F) :: acc) in
    let chunks = match chunks v [] with [] -> [ 0 ] | l -> l in
    List.iteri
      (fun i c ->
        let last = i = List.length chunks - 1 in
        Buffer.add_char buf (Char.chr (if last then c else c lor 0x80)))
      chunks
  in
  (match Oid.arcs o with
  | a :: b :: rest ->
      encode_base128 ((a * 40) + b);
      List.iter encode_base128 rest
  | _ -> assert false (* Oid.make guarantees >= 2 arcs *));
  Prim (utag tn_oid, Buffer.contents buf)

let utf8_string s = Prim (utag tn_utf8, s)
let printable_string s = Prim (utag tn_printable, s)
let ia5_string s = Prim (utag tn_ia5, s)
let utc_time s = Prim (utag tn_utc_time, s)
let generalized_time s = Prim (utag tn_generalized_time, s)
let sequence l = Cons (utag ~constructed:true tn_sequence, l)
let set l = Cons (utag ~constructed:true tn_set, l)

let context n children =
  Cons ({ cls = Context_specific; constructed = true; number = n }, children)

let context_prim n content =
  Prim ({ cls = Context_specific; constructed = false; number = n }, content)

let tag_of = function Prim (t, _) -> t | Cons (t, _) -> t

let tag_name tag =
  match (tag.cls, tag.number) with
  | Universal, 1 -> "BOOLEAN"
  | Universal, 2 -> "INTEGER"
  | Universal, 3 -> "BIT STRING"
  | Universal, 4 -> "OCTET STRING"
  | Universal, 5 -> "NULL"
  | Universal, 6 -> "OBJECT IDENTIFIER"
  | Universal, 12 -> "UTF8String"
  | Universal, 16 -> "SEQUENCE"
  | Universal, 17 -> "SET"
  | Universal, 19 -> "PrintableString"
  | Universal, 22 -> "IA5String"
  | Universal, 23 -> "UTCTime"
  | Universal, 24 -> "GeneralizedTime"
  | Universal, n -> Printf.sprintf "UNIVERSAL %d" n
  | Context_specific, n -> Printf.sprintf "[%d]" n
  | Application, n -> Printf.sprintf "APPLICATION %d" n
  | Private, n -> Printf.sprintf "PRIVATE %d" n

let wrong_shape expected v =
  Error (Printf.sprintf "expected %s, found %s" expected (tag_name (tag_of v)))

let as_boolean = function
  | Prim ({ cls = Universal; number = 1; _ }, c) when String.length c = 1 ->
      Ok (c.[0] <> '\x00')
  | v -> wrong_shape "BOOLEAN" v

let as_integer_bytes = function
  | Prim ({ cls = Universal; number = 2; _ }, c) when String.length c > 0 -> Ok c
  | v -> wrong_shape "INTEGER" v

let as_integer_int v =
  let* c = as_integer_bytes v in
  if String.length c > 8 then Error "INTEGER too large for int"
  else begin
    let acc = ref (if Char.code c.[0] >= 0x80 then -1 else 0) in
    String.iter (fun ch -> acc := (!acc lsl 8) lor Char.code ch) c;
    Ok !acc
  end

let as_bit_string = function
  | Prim ({ cls = Universal; number = 3; _ }, c) when String.length c >= 1 ->
      Ok (Char.code c.[0], String.sub c 1 (String.length c - 1))
  | v -> wrong_shape "BIT STRING" v

let as_octet_string = function
  | Prim ({ cls = Universal; number = 4; _ }, c) -> Ok c
  | v -> wrong_shape "OCTET STRING" v

let decode_oid content =
  if String.length content = 0 then Error "OID: empty content"
  else begin
    let arcs = ref [] in
    let v = ref 0 in
    let err = ref None in
    String.iteri
      (fun i ch ->
        let c = Char.code ch in
        v := (!v lsl 7) lor (c land 0x7F);
        if c land 0x80 = 0 then begin
          arcs := !v :: !arcs;
          v := 0
        end
        else if i = String.length content - 1 then
          err := Some "OID: truncated base-128 arc")
      content;
    match !err with
    | Some e -> Error e
    | None -> (
        match List.rev !arcs with
        | first :: rest ->
            let a = if first < 40 then 0 else if first < 80 then 1 else 2 in
            let b = first - (a * 40) in
            (try Ok (Oid.make (a :: b :: rest))
             with Invalid_argument m -> Error m)
        | [] -> Error "OID: no arcs")
  end

let as_oid = function
  | Prim ({ cls = Universal; number = 6; _ }, c) -> decode_oid c
  | v -> wrong_shape "OBJECT IDENTIFIER" v

let as_string = function
  | Prim ({ cls = Universal; number = 12 | 19 | 22; _ }, c) -> Ok c
  | v -> wrong_shape "UTF8String/PrintableString/IA5String" v

let as_sequence = function
  | Cons ({ cls = Universal; number = 16; _ }, l) -> Ok l
  | v -> wrong_shape "SEQUENCE" v

let as_set = function
  | Cons ({ cls = Universal; number = 17; _ }, l) -> Ok l
  | v -> wrong_shape "SET" v

let as_context n = function
  | Cons ({ cls = Context_specific; number; _ }, l) when number = n -> Ok l
  | v -> wrong_shape (Printf.sprintf "[%d]" n) v

(* --- Encoding --- *)

let class_bits = function
  | Universal -> 0x00
  | Application -> 0x40
  | Context_specific -> 0x80
  | Private -> 0xC0

let add_tag buf tag =
  if tag.number > 30 then invalid_arg "Der: high tag numbers unsupported";
  let b =
    class_bits tag.cls lor (if tag.constructed then 0x20 else 0x00) lor tag.number
  in
  Buffer.add_char buf (Char.chr b)

let add_length buf len =
  if len < 0x80 then Buffer.add_char buf (Char.chr len)
  else begin
    let rec octets v acc = if v = 0 then acc else octets (v lsr 8) ((v land 0xFF) :: acc) in
    let os = octets len [] in
    Buffer.add_char buf (Char.chr (0x80 lor List.length os));
    List.iter (fun o -> Buffer.add_char buf (Char.chr o)) os
  end

let rec encode_into buf v =
  match v with
  | Prim (tag, content) ->
      add_tag buf tag;
      add_length buf (String.length content);
      Buffer.add_string buf content
  | Cons (tag, children) ->
      let inner = Buffer.create 64 in
      List.iter (encode_into inner) children;
      add_tag buf { tag with constructed = true };
      add_length buf (Buffer.length inner);
      Buffer.add_buffer buf inner

let encode v =
  let buf = Buffer.create 128 in
  encode_into buf v;
  Buffer.contents buf

let encode_many vs =
  let buf = Buffer.create 256 in
  List.iter (encode_into buf) vs;
  Buffer.contents buf

(* --- Decoding --- *)

(* Constructed nesting is bounded: adversarial inputs can legally encode
   tens of thousands of nested SEQUENCEs in a few hundred KiB (a "nesting
   bomb"), which would otherwise turn the recursive walks below into a
   Stack_overflow — an exception escaping a decoder whose contract is
   [Error _] on every malformed input. X.509 structures are single-digit
   deep; 1024 is three orders of magnitude of headroom. lib/der2 applies
   the same bound so the two independent decoders accept identical inputs. *)
let max_depth = 1024

let nesting_error =
  Printf.sprintf "nesting deeper than %d constructed levels" max_depth

(* The header readers are bounded by an explicit [limit] (one past the last
   readable byte) instead of the buffer length, so the same code serves both
   whole-string decoding and the zero-copy slice reader below. *)

let read_tag_at s ~limit off =
  if off >= limit then Error "truncated: no tag byte"
  else begin
    let b = Char.code (String.unsafe_get s off) in
    let cls =
      match b land 0xC0 with
      | 0x00 -> Universal
      | 0x40 -> Application
      | 0x80 -> Context_specific
      | _ -> Private
    in
    let constructed = b land 0x20 <> 0 in
    let number = b land 0x1F in
    if number = 0x1F then Error "high tag numbers unsupported"
    else Ok ({ cls; constructed; number }, off + 1)
  end

let read_length_at s ~limit off =
  if off >= limit then Error "truncated: no length byte"
  else begin
    let b = Char.code (String.unsafe_get s off) in
    if b < 0x80 then Ok (b, off + 1)
    else if b = 0x80 then Error "indefinite length not allowed in DER"
    else begin
      let n = b land 0x7F in
      if n > 4 then Error "length too large"
      else if off + 1 + n > limit then Error "truncated length octets"
      else begin
        let len = ref 0 in
        for i = 1 to n do
          len := (!len lsl 8) lor Char.code (String.unsafe_get s (off + i))
        done;
        if !len < 0x80 || (n > 1 && !len < 1 lsl ((n - 1) * 8)) then
          Error "non-minimal length encoding"
        else Ok (!len, off + 1 + n)
      end
    end
  end

let read_tag s off = read_tag_at s ~limit:(String.length s) off
let read_length s off = read_length_at s ~limit:(String.length s) off

let rec decode_prefix_at s ~depth off =
  let* tag, off = read_tag s off in
  let* len, off = read_length s off in
  if off + len > String.length s then Error "truncated content"
  else if tag.constructed then
    if depth >= max_depth then Error nesting_error
    else begin
      let stop = off + len in
      let rec children acc pos =
        if pos = stop then Ok (List.rev acc)
        else if pos > stop then Error "constructed content overruns length"
        else
          let* child, pos = decode_prefix_at s ~depth:(depth + 1) pos in
          children (child :: acc) pos
      in
      let* kids = children [] off in
      Ok (Cons (tag, kids), stop)
    end
  else Ok (Prim (tag, String.sub s off len), off + len)

let decode_prefix s off = decode_prefix_at s ~depth:0 off

let decode s =
  let* v, stop = decode_prefix s 0 in
  if stop <> String.length s then
    Error (Printf.sprintf "trailing garbage: %d bytes" (String.length s - stop))
  else Ok v

(* --- Zero-copy slice reader --- *)

type slice = { buf : string; off : int; len : int }

let slice_of_string s = { buf = s; off = 0; len = String.length s }

let slice_string { buf; off; len } =
  if off = 0 && len = String.length buf then buf else String.sub buf off len

type node = { n_tag : tag; n_raw : slice; n_content : slice }

let node_tag n = n.n_tag
let node_content n = slice_string n.n_content
let node_raw n = slice_string n.n_raw

let read_node { buf; off; len } =
  let limit = off + len in
  let* tag, p = read_tag_at buf ~limit off in
  let* clen, p = read_length_at buf ~limit p in
  if p + clen > limit then Error "truncated content"
  else
    Ok
      ( { n_tag = tag;
          n_raw = { buf; off; len = p + clen - off };
          n_content = { buf; off = p; len = clen } },
        { buf; off = p + clen; len = limit - p - clen } )

let node_children n =
  if not n.n_tag.constructed then
    Error
      (Printf.sprintf "expected constructed value, found %s" (tag_name n.n_tag))
  else begin
    let rec go acc rest =
      if rest.len = 0 then Ok (List.rev acc)
      else
        let* child, rest = read_node rest in
        go (child :: acc) rest
    in
    go [] n.n_content
  end

let rec tree_of_node_at ~depth n =
  if n.n_tag.constructed then
    if depth >= max_depth then Error nesting_error
    else
      let* kids = node_children n in
      let* trees = map_result_tree ~depth:(depth + 1) kids in
      Ok (Cons (n.n_tag, trees))
  else Ok (Prim (n.n_tag, slice_string n.n_content))

and map_result_tree ~depth = function
  | [] -> Ok []
  | n :: rest ->
      let* t = tree_of_node_at ~depth n in
      let* ts = map_result_tree ~depth rest in
      Ok (t :: ts)

let tree_of_node n = tree_of_node_at ~depth:0 n

let decode_slice s =
  let* n, rest = read_node s in
  if rest.len <> 0 then
    Error (Printf.sprintf "trailing garbage: %d bytes" rest.len)
  else tree_of_node n

(* Typed node destructors, mirroring the tree [as_*] family (same error
   strings, so the slice-based certificate decoder reports malformed input
   exactly like the tree-based one). *)

let node_wrong_shape expected n =
  Error (Printf.sprintf "expected %s, found %s" expected (tag_name n.n_tag))

let as_sequence_n n =
  match n.n_tag with
  | { cls = Universal; number = 16; constructed = true } -> node_children n
  | _ -> node_wrong_shape "SEQUENCE" n

let as_integer_bytes_n n =
  match n.n_tag with
  | { cls = Universal; number = 2; constructed = false } when n.n_content.len > 0 ->
      Ok (slice_string n.n_content)
  | _ -> node_wrong_shape "INTEGER" n

let as_integer_int_n n =
  let* c = as_integer_bytes_n n in
  if String.length c > 8 then Error "INTEGER too large for int"
  else begin
    let acc = ref (if Char.code c.[0] >= 0x80 then -1 else 0) in
    String.iter (fun ch -> acc := (!acc lsl 8) lor Char.code ch) c;
    Ok !acc
  end

let as_bit_string_n n =
  match n.n_tag with
  | { cls = Universal; number = 3; constructed = false } when n.n_content.len >= 1 ->
      let { buf; off; len } = n.n_content in
      Ok (Char.code buf.[off], String.sub buf (off + 1) (len - 1))
  | _ -> node_wrong_shape "BIT STRING" n

let as_oid_n n =
  match n.n_tag with
  | { cls = Universal; number = 6; constructed = false } ->
      decode_oid (slice_string n.n_content)
  | _ -> node_wrong_shape "OBJECT IDENTIFIER" n

let as_context_n num n =
  match n.n_tag with
  | { cls = Context_specific; number; _ } when number = num -> node_children n
  | _ -> node_wrong_shape (Printf.sprintf "[%d]" num) n

let is_context_n num n =
  match n.n_tag with
  | { cls = Context_specific; number; _ } -> number = num
  | _ -> false

let rec pp ppf v =
  match v with
  | Prim (tag, content) ->
      if tag.number = tn_oid && tag.cls = Universal then
        match decode_oid content with
        | Ok o -> Format.fprintf ppf "OBJECT IDENTIFIER %s" (Oid.name o)
        | Error _ -> Format.fprintf ppf "OBJECT IDENTIFIER <bad>"
      else if
        (tag.number = tn_printable || tag.number = tn_utf8 || tag.number = tn_ia5
       || tag.number = tn_utc_time || tag.number = tn_generalized_time)
        && tag.cls = Universal
      then Format.fprintf ppf "%s %S" (tag_name tag) content
      else
        Format.fprintf ppf "%s (%d bytes) %s" (tag_name tag)
          (String.length content)
          (Chaoschain_crypto.Hex.encode
             (String.sub content 0 (min 8 (String.length content))))
  | Cons (tag, children) ->
      Format.fprintf ppf "@[<v 2>%s {" (tag_name tag);
      List.iter (fun c -> Format.fprintf ppf "@,%a" pp c) children;
      Format.fprintf ppf "@]@,}"
