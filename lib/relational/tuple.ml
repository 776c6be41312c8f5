type t = Value.t array

let of_list = Array.of_list
let to_list = Array.to_list

let project idx tup = Array.map (fun i -> tup.(i)) idx

let project_list idx tup =
  Array.fold_right (fun i acc -> tup.(i) :: acc) idx []

let has_null_at idx tup = Array.exists (fun i -> Value.is_null tup.(i)) idx

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Value.pp)
    (Array.to_list t)
