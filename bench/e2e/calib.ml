(* The calibration kernel: a fixed unit of work that uses no code of the
   program under test, only the OCaml standard library. It allocates
   strings, fills and probes a hash table, and sorts, as the workloads
   do. A pass runs it in a fresh process after every block of a few
   operations; when the host runs slower or faster for a while, the
   kernel slows or speeds with it. Dividing the block's times by the
   kernel's time takes most of that drift out (see README.md). *)

(* the kernel's time on a host of reference speed (a quiet 2-vCPU
   x86-64 VM takes about this long): normalized times read as
   milliseconds on such a host *)
let reference_ms = 100.

let size ~smoke = if smoke then 2_000 else 75_000

(* deterministic; returns a checksum so nothing is optimized away and
   every run can be checked to have done the same work *)
let kernel n =
  let rng = Random.State.make [| 7 |] in
  let keys = Array.init n (fun _ -> string_of_int (Random.State.bits rng)) in
  let tbl = Hashtbl.create 1024 in
  Array.iteri (fun i k -> Hashtbl.replace tbl k i) keys;
  let hashes = Array.map (fun k -> Hashtbl.find tbl k + Hashtbl.hash k) keys in
  Array.sort compare hashes;
  let sorted = List.sort String.compare (Array.to_list keys) in
  let b = Buffer.create 16 in
  List.iter (Buffer.add_string b) sorted;
  Buffer.length b + hashes.(0) + Hashtbl.length tbl

(* milliseconds of one kernel run in this process, and its checksum *)
let run n =
  let t0 = Probe.now () in
  let check = kernel n in
  ((Probe.now () -. t0) *. 1e3, check)

(* what a time or a rate measured in a block reads at reference speed,
   given the kernel's time after the block *)
let time ~calib_ms v = v *. reference_ms /. calib_ms
let rate ~calib_ms v = v *. calib_ms /. reference_ms
