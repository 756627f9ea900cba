module Der = Chaoschain_der.Der
module Oid = Chaoschain_der.Oid

type attr = { typ : Oid.t; value : string }
type rdn = attr list
type t = rdn list

let empty = []

let of_attrs pairs = List.map (fun (typ, value) -> [ { typ; value } ]) pairs

let make ?c ?st ?l ?o ?ou ?cn () =
  let add typ v acc = match v with None -> acc | Some value -> (typ, value) :: acc in
  of_attrs
    (List.rev
       (add Oid.at_common_name cn
          (add Oid.at_org_unit ou
             (add Oid.at_organization o
                (add Oid.at_locality l
                   (add Oid.at_state st (add Oid.at_country c [])))))))

let find_attr typ t =
  List.find_map
    (fun rdn -> List.find_map (fun a -> if Oid.equal a.typ typ then Some a.value else None) rdn)
    t

let common_name = find_attr Oid.at_common_name
let organization = find_attr Oid.at_organization

(* caseIgnoreMatch with internal whitespace folding, per RFC 5280 sec. 7.1's
   simplified string comparison: leading and trailing space/tab are dropped,
   internal runs of space/tab compare as one space, and ASCII letters compare
   case-insensitively.  Path building evaluates this on every candidate at
   every step, so both values are walked in place and nothing is allocated. *)
let is_blank c = c = ' ' || c = '\t'

let rec skip_blanks s i =
  if i < String.length s && is_blank (String.unsafe_get s i) then skip_blanks s (i + 1)
  else i

(* [i] and [j] sit on a non-blank character or at the end of their string. *)
let rec equal_folded a i b j =
  let la = String.length a and lb = String.length b in
  if i = la || j = lb then i = la && j = lb
  else
    Char.equal
      (Char.lowercase_ascii (String.unsafe_get a i))
      (Char.lowercase_ascii (String.unsafe_get b j))
    &&
    let i' = skip_blanks a (i + 1) and j' = skip_blanks b (j + 1) in
    (* An internal blank run on one side must meet one on the other; a
       trailing run is dropped, which the end-of-string test settles. *)
    (i' = la || j' = lb || Bool.equal (i' > i + 1) (j' > j + 1))
    && equal_folded a i' b j'

let equal_value a b = equal_folded a (skip_blanks a 0) b (skip_blanks b 0)

let equal_attr_loose a b = Oid.equal a.typ b.typ && equal_value a.value b.value
let equal_attr_strict a b = Oid.equal a.typ b.typ && String.equal a.value b.value

let rec equal_rdn attr_eq a b =
  match (a, b) with
  | [], [] -> true
  | x :: a, y :: b -> attr_eq x y && equal_rdn attr_eq a b
  | _ -> false

let rec equal_with attr_eq a b =
  match (a, b) with
  | [], [] -> true
  | x :: a, y :: b -> equal_rdn attr_eq x y && equal_with attr_eq a b
  | _ -> false

let equal_strict a b = equal_with equal_attr_strict a b
let equal a b = equal_with equal_attr_loose a b

let compare a b =
  let attr_cmp x y =
    match Oid.compare x.typ y.typ with 0 -> String.compare x.value y.value | c -> c
  in
  List.compare (List.compare attr_cmp) a b

let is_empty t = t = []

let attr_abbrev typ =
  if Oid.equal typ Oid.at_common_name then "CN"
  else if Oid.equal typ Oid.at_country then "C"
  else if Oid.equal typ Oid.at_locality then "L"
  else if Oid.equal typ Oid.at_state then "ST"
  else if Oid.equal typ Oid.at_organization then "O"
  else if Oid.equal typ Oid.at_org_unit then "OU"
  else Oid.to_string typ

let to_string t =
  String.concat ", "
    (List.map
       (fun rdn ->
         String.concat "+"
           (List.map (fun a -> Printf.sprintf "%s=%s" (attr_abbrev a.typ) a.value) rdn))
       t)

let pp ppf t = Format.pp_print_string ppf (to_string t)

(* Country names are PrintableString in the wild; everything else we emit as
   UTF8String. The decoder accepts either. *)
let attr_to_der a =
  let value =
    if Oid.equal a.typ Oid.at_country then Der.printable_string a.value
    else Der.utf8_string a.value
  in
  Der.sequence [ Der.oid a.typ; value ]

let to_der t = Der.sequence (List.map (fun rdn -> Der.set (List.map attr_to_der rdn)) t)

let ( let* ) = Result.bind

let attr_of_der v =
  let* fields = Der.as_sequence v in
  match fields with
  | [ typ_v; value_v ] ->
      let* typ = Der.as_oid typ_v in
      let* value = Der.as_string value_v in
      Ok { typ; value }
  | _ -> Error "AttributeTypeAndValue: expected 2 fields"

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let of_der v =
  let* rdns = Der.as_sequence v in
  map_result
    (fun rdn_v ->
      let* attrs = Der.as_set rdn_v in
      if attrs = [] then Error "RDN: empty set" else map_result attr_of_der attrs)
    rdns
