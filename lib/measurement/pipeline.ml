let default_jobs () = Domain.recommended_domain_count ()

(* A reusable pool of worker Domains. Batch runs (the offline measurement
   path) create one per map call, exactly as before; the long-lived chaind
   service keeps a single pool alive and pushes micro-batch after micro-batch
   through it, avoiding a Domain spawn/join per batch. Each [run] is an
   epoch: the caller publishes (n, task) under the lock, bumps the epoch and
   wakes the workers; everyone (caller included) drains indices from a shared
   atomic counter; the caller returns when all workers have retired the
   epoch. Worker exceptions are captured and re-raised from [run]. *)
module Pool = struct
  type t = {
    jobs : int;
    lock : Mutex.t;
    work : Condition.t;   (* a new epoch was published, or shutdown *)
    retired : Condition.t;(* a worker finished the current epoch *)
    next : int Atomic.t;
    mutable epoch : int;
    mutable n : int;
    mutable task : int -> unit;
    mutable busy : int;   (* workers still draining the current epoch *)
    mutable failure : exn option;
    mutable closing : bool;
    mutable domains : unit Domain.t list;
  }

  let drain t n task =
    let rec go () =
      let i = Atomic.fetch_and_add t.next 1 in
      if i < n then begin
        (match task i with
        | () -> ()
        | exception e ->
            Mutex.lock t.lock;
            if t.failure = None then t.failure <- Some e;
            Mutex.unlock t.lock);
        go ()
      end
    in
    go ()

  let create ~jobs =
    let jobs = max 1 jobs in
    let t =
      {
        jobs;
        lock = Mutex.create ();
        work = Condition.create ();
        retired = Condition.create ();
        next = Atomic.make 0;
        epoch = 0;
        n = 0;
        task = ignore;
        busy = 0;
        failure = None;
        closing = false;
        domains = [];
      }
    in
    let worker () =
      let seen = ref 0 in
      Mutex.lock t.lock;
      let rec loop () =
        if t.closing then Mutex.unlock t.lock
        else if t.epoch > !seen then begin
          seen := t.epoch;
          let n = t.n and task = t.task in
          Mutex.unlock t.lock;
          drain t n task;
          Mutex.lock t.lock;
          t.busy <- t.busy - 1;
          if t.busy = 0 then Condition.broadcast t.retired;
          loop ()
        end
        else begin
          Condition.wait t.work t.lock;
          loop ()
        end
      in
      loop ()
    in
    t.domains <- List.init (jobs - 1) (fun _ -> Domain.spawn worker);
    t

  let jobs t = t.jobs

  let reraise_failure t =
    (* Called with the lock held, after the epoch fully retired. *)
    match t.failure with
    | None -> Mutex.unlock t.lock
    | Some e ->
        t.failure <- None;
        Mutex.unlock t.lock;
        raise e

  let run t n task =
    if n > 0 then
      if t.jobs = 1 || n = 1 then
        for i = 0 to n - 1 do
          task i
        done
      else begin
        Mutex.lock t.lock;
        t.n <- n;
        t.task <- task;
        Atomic.set t.next 0;
        t.busy <- t.jobs - 1;
        t.epoch <- t.epoch + 1;
        Condition.broadcast t.work;
        Mutex.unlock t.lock;
        drain t n task;
        Mutex.lock t.lock;
        while t.busy > 0 do
          Condition.wait t.retired t.lock
        done;
        reraise_failure t
      end

  let shutdown t =
    Mutex.lock t.lock;
    t.closing <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    List.iter Domain.join t.domains;
    t.domains <- []
end

(* Drain [n] tasks with [jobs] Domains pulling indices from a shared atomic
   counter, on a pool created for this one call (the caller's Domain works
   too, so [jobs = 2] spawns one extra Domain). Worker exceptions propagate
   out of [Pool.run]. *)
let run_tasks ~jobs n task =
  if n > 0 then begin
    let pool = Pool.create ~jobs:(min jobs n) in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> Pool.run pool n task)
  end

let with_par ~jobs f =
  if jobs <= 1 then f Chaoschain_store.Par.seq
  else begin
    let pool = Pool.create ~jobs in
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f (Pool.run pool))
  end

let map_shards ?(jobs = 1) f arr =
  let slices = Shard.plan (Array.length arr) in
  let run_slice (s : Shard.slice) =
    let out = f ~shard:s.Shard.index (Array.sub arr s.Shard.start (s.Shard.stop - s.Shard.start)) in
    if Array.length out <> s.Shard.stop - s.Shard.start then
      invalid_arg "Pipeline.map_shards: callback changed the slice length";
    out
  in
  if jobs <= 1 then Shard.merge (Array.map run_slice slices)
  else begin
    let results = Array.make (Array.length slices) [||] in
    run_tasks ~jobs (Array.length slices) (fun i -> results.(i) <- run_slice slices.(i));
    Shard.merge results
  end

let mapi ?jobs f arr =
  map_shards ?jobs
    (fun ~shard slice ->
      let base = shard * Shard.target_size in
      Array.mapi (fun i x -> f (base + i) x) slice)
    arr

let map ?jobs f arr = map_shards ?jobs (fun ~shard:_ slice -> Array.map f slice) arr

module Memo = struct
  type 'a t = {
    table : (string, 'a) Hashtbl.t;
    lock : Mutex.t;
    mutable hit_count : int;
  }

  let create () = { table = Hashtbl.create 4096; lock = Mutex.create (); hit_count = 0 }

  let find_or_add t key f =
    Mutex.lock t.lock;
    match Hashtbl.find_opt t.table key with
    | Some v ->
        t.hit_count <- t.hit_count + 1;
        Mutex.unlock t.lock;
        v
    | None ->
        Mutex.unlock t.lock;
        (* Computed outside the lock: [f] may be slow and may itself fetch
           through the (independently locked) AIA repository. A concurrent
           duplicate computation returns an equal value; first insert wins. *)
        let v = f () in
        Mutex.lock t.lock;
        let v =
          match Hashtbl.find_opt t.table key with
          | Some prior -> prior
          | None ->
              Hashtbl.add t.table key v;
              v
        in
        Mutex.unlock t.lock;
        v

  let size t = Hashtbl.length t.table
  let hits t = t.hit_count
end
