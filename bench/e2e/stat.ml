(* Order statistics over one metric's samples. Quartiles follow Python's
   [statistics.quantiles values ~n:4] (its default "exclusive" method),
   the definition the benchmark's spread rule is stated in. *)

type t = { n : int; median : float; q1 : float; q3 : float }

let sorted xs = Array.of_list (List.sort Float.compare xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let quartiles xs =
  let a = sorted xs in
  match Array.length a with
  | 0 -> invalid_arg "Stat.quartiles: no samples"
  | 1 -> (a.(0), a.(0))
  | n ->
      let m = n + 1 in
      let q i =
        let j = max 1 (min (n - 1) (i * m / 4)) in
        let delta = float_of_int ((i * m) - (j * 4)) in
        ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
      in
      (q 1, q 3)

let summary xs =
  let q1, q3 = quartiles xs in
  { n = List.length xs; median = median xs; q1; q3 }

(* nearest-rank percentile, [p] in (0, 100] *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.percentile: no samples";
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))
