(* The lab the served workloads run in, and the seeded request frames.

   The server generates its lab population itself (chaoscheck serve
   --scale); the benchmark generates the same deterministic population
   in-process so it can encode request frames from it and compute
   reference replies with an in-process engine over the same trust
   environment. The seed only picks and orders the requests. *)

module Population = Chaoschain_measurement.Population
module Universe = Chaoschain_pki.Universe
module Engine = Chaoschain_service.Engine
module Protocol = Chaoschain_service.Protocol
module Pem = Chaoschain_deployment.Pem
module Base64 = Chaoschain_deployment.Base64
module Certmsg = Chaoschain_tlssim.Certmsg

let scale = 0.01

let env_of pop =
  let u = pop.Population.universe in
  { Engine.diff_env = Population.env pop;
    union_store = Universe.union_store u;
    program_store = Universe.store u;
    aia = Universe.aia u;
    find_scenario = (fun _ -> None) }

type source = Pem_text | Certmsg12 | Certmsg13

(* One check frame, default options. The 1.2 message declares its framing,
   the 1.3 one is left to the server's auto-detection, so both decode
   paths carry traffic. *)
let frame ~id source (domain, chain) =
  let check =
    { Protocol.domain = Some domain; pem = None; scenario = None;
      certmsg = None; format = None; aia = true; store = Protocol.Union;
      clients = None }
  in
  let check =
    match source with
    | Pem_text -> { check with pem = Some (Pem.encode_certs chain) }
    | Certmsg12 ->
        { check with
          certmsg =
            Some
              (Base64.encode
                 (Certmsg.encode (Certmsg.of_certs Certmsg.Tls12 chain)));
          format = Some Certmsg.Tls12 }
    | Certmsg13 ->
        { check with
          certmsg =
            Some
              (Base64.encode
                 (Certmsg.encode (Certmsg.of_certs Certmsg.Tls13 chain))) }
  in
  Protocol.to_frame { Protocol.id = Some id; op = Protocol.Check check }

let sources = [| Pem_text; Certmsg12; Certmsg13 |]

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* A workload's traffic: [frames.(order.(i mod len))] is request [i]. *)
type traffic = {
  frames : string array;
  order : int array;
  warm : string array;  (* frames to send once before timing *)
}

let frame_of t i = t.frames.(t.order.(i mod Array.length t.order))

(* [working] (domain, chain) pairs, fewer than the verdict LRU holds, each
   encoded under every source; requests draw a seeded uniform mix. *)
let hot ~rng ~prefix ~sources:srcs working =
  let n = Array.length working in
  let m = Array.length srcs in
  let frames =
    Array.init (n * m) (fun k ->
        frame ~id:(Printf.sprintf "%s%d" prefix k) srcs.(k mod m)
          working.(k / m))
  in
  { frames;
    order = Array.init 65536 (fun _ -> Random.State.int rng (n * m));
    warm = Array.init n (fun i -> frames.(i * m)) }

(* Every pair once per cycle, in one seeded order, each under a seeded
   source: the same key recurs only after [Array.length all] others, far
   beyond the LRU's reach. *)
let cold ~rng all =
  let n = Array.length all in
  let perm = Array.init n Fun.id in
  shuffle rng perm;
  let srcs = Array.init n (fun _ -> sources.(Random.State.int rng 3)) in
  { frames =
      Array.init n (fun k ->
          frame ~id:(Printf.sprintf "c%d" k) srcs.(k) all.(perm.(k)));
    order = Array.init n Fun.id;
    warm = [||] }

let sample ~rng n a =
  let idx = Array.init (Array.length a) Fun.id in
  shuffle rng idx;
  Array.map (fun i -> a.(i)) (Array.sub idx 0 (min n (Array.length a)))

let pairs_of_pop pop =
  Array.map
    (fun r -> (r.Population.domain, r.Population.chain))
    pop.Population.domains
