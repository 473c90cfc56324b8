type lock = {
  acquire : unit -> unit;
  release : unit -> unit;
  lock_name : string;
}

type atomic_int = {
  load : unit -> int;
  store : int -> unit;
  cas : expected:int -> desired:int -> bool;
  faa : int -> int;
  peek : unit -> int;
  poke : int -> unit;
  atomic_name : string;
}

type t = {
  nprocs : int;
  page_size : int;
  self_proc : unit -> int;
  self_tid : unit -> int;
  work : int -> unit;
  read : addr:int -> len:int -> unit;
  write : addr:int -> len:int -> unit;
  new_lock : string -> lock;
  new_atomic : string -> int -> atomic_int;
  now : unit -> int;
  page_map : bytes:int -> align:int -> owner:int -> int;
  page_unmap : addr:int -> unit;
  page_decommit : addr:int -> unit;
  page_commit : addr:int -> unit;
  page_residency : addr:int -> Vmem.residency;
  region_bytes : addr:int -> int option;
  mapped_bytes : owner:int -> int;
  peak_mapped_bytes : owner:int -> int;
}

(* Registry recovering the vmem behind a host platform, keyed by physical
   equality; only tests use it and platforms are few. Guarded by a mutex
   so concurrent [host ()] calls (e.g. from test domains) don't race the
   list, and released explicitly so long test runs don't accumulate
   vmems. *)
let host_vmems_mu = Mutex.create ()

let host_vmems : (t * Vmem.t) list ref = ref []

let host ?(nprocs = 1) () =
  let vmem = Vmem.create () in
  let vmem_lock = Mutex.create () in
  let locked f =
    Mutex.lock vmem_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock vmem_lock) f
  in
  let self_tid () = (Domain.self () :> int) in
  (* The host has no simulated clock; a fetch-and-add logical clock keeps
     event timestamps strictly monotone across domains, which is all the
     observability layer needs from it. *)
  let tick = Atomic.make 1 in
  let t =
    {
      nprocs;
      page_size = Vmem.page_size;
      self_proc = (fun () -> self_tid () mod nprocs);
      self_tid;
      work = (fun _ -> ());
      read = (fun ~addr:_ ~len:_ -> ());
      write = (fun ~addr:_ ~len:_ -> ());
      new_lock =
        (fun lock_name ->
          let m = Mutex.create () in
          { acquire = (fun () -> Mutex.lock m); release = (fun () -> Mutex.unlock m); lock_name });
      new_atomic =
        (fun atomic_name init ->
          let a = Atomic.make init in
          {
            load = (fun () -> Atomic.get a);
            store = (fun v -> Atomic.set a v);
            cas = (fun ~expected ~desired -> Atomic.compare_and_set a expected desired);
            faa = (fun n -> Atomic.fetch_and_add a n);
            peek = (fun () -> Atomic.get a);
            poke = (fun v -> Atomic.set a v);
            atomic_name;
          });
      now = (fun () -> Atomic.fetch_and_add tick 1);
      page_map = (fun ~bytes ~align ~owner -> locked (fun () -> Vmem.map vmem ~owner ~bytes ~align ()));
      page_unmap = (fun ~addr -> locked (fun () -> Vmem.unmap vmem ~addr));
      page_decommit = (fun ~addr -> locked (fun () -> Vmem.decommit vmem ~addr));
      page_commit = (fun ~addr -> locked (fun () -> Vmem.commit vmem ~addr));
      page_residency = (fun ~addr -> locked (fun () -> Vmem.residency vmem ~addr));
      region_bytes = (fun ~addr -> locked (fun () -> Vmem.region_size vmem ~addr));
      mapped_bytes = (fun ~owner -> locked (fun () -> Vmem.mapped_bytes_of_owner vmem owner));
      peak_mapped_bytes = (fun ~owner -> locked (fun () -> Vmem.peak_bytes_of_owner vmem owner));
    }
  in
  Mutex.protect host_vmems_mu (fun () -> host_vmems := (t, vmem) :: !host_vmems);
  t

let host_vmem t =
  Mutex.protect host_vmems_mu (fun () ->
      List.find_map (fun (t', v) -> if t' == t then Some v else None) !host_vmems)

let host_release t =
  Mutex.protect host_vmems_mu (fun () -> host_vmems := List.filter (fun (t', _) -> t' != t) !host_vmems)
