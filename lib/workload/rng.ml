type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = seed }

let next t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = next t }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let raw = Int64.to_int (Int64.shift_right_logical (next t) 1) land max_int in
  raw mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let float t bound =
  let raw = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. (raw /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (next t) 1L = 1L
let chance t p = float t 1.0 < p

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | l -> List.nth l (int t (List.length l))

let shuffle t l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

let sample t k l =
  let shuffled = shuffle t l in
  List.filteri (fun i _ -> i < k) shuffled
