open Relational
open Deps

type nei_context = { join : Sqlx.Equijoin.t; counts : Ind.counts }

type nei_decision =
  | Conceptualize of string
  | Force_left_in_right
  | Force_right_in_left
  | Ignore_nei

type script = {
  nei_choices : (string * nei_decision) list;
  fd_rejections : string list;
  fd_enforcements : (string * string) list;
  hidden_accepted : string list;
  hidden_names : (string * string) list;
  fd_names : (string * string) list;
}

type mode =
  | Auto
  | Skeptical
  | Threshold of float
  | Scripted of script
  | Interactive

type t = {
  mode : mode;
  on_nei : nei_context -> nei_decision;
  validate_fd : Fd.t -> bool;
  enforce_fd : rel:string -> lhs:string list -> attr:string -> bool;
  conceptualize_hidden : Attribute.t -> bool;
  name_hidden : Attribute.t -> string;
  name_fd_relation : Fd.t -> string;
}

let capitalize = String.capitalize_ascii

let default_hidden_name (a : Attribute.t) =
  capitalize (String.concat "_" (a.Attribute.rel :: a.Attribute.attrs))

let default_fd_name (fd : Fd.t) =
  capitalize (String.concat "_" (fd.Fd.rel :: fd.Fd.lhs))

let automatic =
  {
    mode = Auto;
    on_nei = (fun _ -> Ignore_nei);
    validate_fd = (fun _ -> true);
    enforce_fd = (fun ~rel:_ ~lhs:_ ~attr:_ -> false);
    conceptualize_hidden = (fun _ -> true);
    name_hidden = default_hidden_name;
    name_fd_relation = default_fd_name;
  }

let threshold nei_ratio =
  let on_nei { counts; _ } =
    let smaller = min counts.Ind.n_left counts.Ind.n_right in
    if smaller = 0 then Ignore_nei
    else if float_of_int counts.Ind.n_join /. float_of_int smaller >= nei_ratio
    then
      if counts.Ind.n_left <= counts.Ind.n_right then Force_left_in_right
      else Force_right_in_left
    else Ignore_nei
  in
  { automatic with mode = Threshold nei_ratio; on_nei }

let scripted script =
  {
    mode = Scripted script;
    on_nei =
      (fun ctx ->
        match
          List.assoc_opt (Sqlx.Equijoin.to_string ctx.join) script.nei_choices
        with
        | Some d -> d
        | None -> Ignore_nei);
    validate_fd =
      (fun fd -> not (List.mem (Fd.to_string fd) script.fd_rejections));
    enforce_fd =
      (fun ~rel ~lhs:_ ~attr -> List.mem (rel, attr) script.fd_enforcements);
    conceptualize_hidden =
      (fun a -> List.mem (Attribute.to_string a) script.hidden_accepted);
    name_hidden =
      (fun a ->
        match List.assoc_opt (Attribute.to_string a) script.hidden_names with
        | Some n -> n
        | None -> default_hidden_name a);
    name_fd_relation =
      (fun fd ->
        match List.assoc_opt (Fd.to_string fd) script.fd_names with
        | Some n -> n
        | None -> default_fd_name fd);
  }

let interactive ?(in_channel = stdin) ?(out_channel = stdout) () =
  let ask prompt =
    Printf.fprintf out_channel "%s " prompt;
    flush out_channel;
    try Some (String.trim (input_line in_channel)) with End_of_file -> None
  in
  let rec ask_retry prompt parse fallback attempts =
    match ask prompt with
    | None -> fallback
    | Some answer -> (
        match parse answer with
        | Some v -> v
        | None ->
            if attempts > 0 then ask_retry prompt parse fallback (attempts - 1)
            else fallback)
  in
  let yes_no prompt fallback =
    ask_retry
      (prompt ^ " [y/n]")
      (fun s ->
        match String.lowercase_ascii s with
        | "y" | "yes" -> Some true
        | "n" | "no" -> Some false
        | _ -> None)
      fallback 1
  in
  {
    mode = Interactive;
    on_nei =
      (fun ctx ->
        let describe =
          Printf.sprintf
            "Non-empty intersection on %s (N_k=%d, N_l=%d, N_kl=%d).\n\
             [c <name>] conceptualize, [l] force left<<right, [r] force \
             right<<left, [i] ignore:"
            (Sqlx.Equijoin.to_string ctx.join)
            ctx.counts.Ind.n_left ctx.counts.Ind.n_right ctx.counts.Ind.n_join
        in
        ask_retry describe
          (fun s ->
            match String.split_on_char ' ' (String.trim s) with
            | [ "c"; name ] when name <> "" -> Some (Conceptualize name)
            | [ "l" ] -> Some Force_left_in_right
            | [ "r" ] -> Some Force_right_in_left
            | [ "i" ] -> Some Ignore_nei
            | _ -> None)
          Ignore_nei 1);
    validate_fd =
      (fun fd -> yes_no (Printf.sprintf "Accept FD %s?" (Fd.to_string fd)) true);
    enforce_fd =
      (fun ~rel ~lhs ~attr ->
        yes_no
          (Printf.sprintf "Enforce %s: %s -> %s despite violations?" rel
             (String.concat "," lhs) attr)
          false);
    conceptualize_hidden =
      (fun a ->
        yes_no
          (Printf.sprintf "Conceptualize hidden object %s?"
             (Attribute.to_string a))
          true);
    name_hidden =
      (fun a ->
        ask_retry
          (Printf.sprintf "Name for hidden object %s (default %s):"
             (Attribute.to_string a) (default_hidden_name a))
          (fun s -> if s = "" then None else Some s)
          (default_hidden_name a) 0);
    name_fd_relation =
      (fun fd ->
        ask_retry
          (Printf.sprintf "Name for relation of %s (default %s):"
             (Fd.to_string fd) (default_fd_name fd))
          (fun s -> if s = "" then None else Some s)
          (default_fd_name fd) 0);
  }

let of_mode = function
  | Auto -> automatic
  | Skeptical ->
      { automatic with mode = Skeptical; conceptualize_hidden = (fun _ -> false) }
  | Threshold r -> threshold r
  | Scripted script -> scripted script
  | Interactive -> interactive ()

type event =
  | Nei_decided of nei_context * nei_decision
  | Fd_validated of Fd.t * bool
  | Fd_enforced of string * string list * string * bool
  | Hidden_considered of Attribute.t * bool

let pp_event ppf = function
  | Nei_decided (ctx, d) ->
      Format.fprintf ppf "NEI %s (N_k=%d N_l=%d N_kl=%d): %s"
        (Sqlx.Equijoin.to_string ctx.join)
        ctx.counts.Ind.n_left ctx.counts.Ind.n_right ctx.counts.Ind.n_join
        (match d with
        | Conceptualize n -> Printf.sprintf "conceptualize as %s" n
        | Force_left_in_right -> "force left << right"
        | Force_right_in_left -> "force right << left"
        | Ignore_nei -> "ignore")
  | Fd_validated (fd, b) ->
      Format.fprintf ppf "FD %s: %s" (Fd.to_string fd)
        (if b then "accepted" else "rejected")
  | Fd_enforced (rel, lhs, attr, b) ->
      Format.fprintf ppf "enforce %s: %s -> %s despite data: %s" rel
        (String.concat "," lhs) attr
        (if b then "yes" else "no")
  | Hidden_considered (a, b) ->
      Format.fprintf ppf "hidden object %s: %s" (Attribute.to_string a)
        (if b then "conceptualized" else "refused")

let traced oracle =
  let events = ref [] in
  let log e = events := e :: !events in
  let wrapped =
    {
      oracle with
      on_nei =
        (fun ctx ->
          let d = oracle.on_nei ctx in
          log (Nei_decided (ctx, d));
          d);
      validate_fd =
        (fun fd ->
          let b = oracle.validate_fd fd in
          log (Fd_validated (fd, b));
          b);
      enforce_fd =
        (fun ~rel ~lhs ~attr ->
          let b = oracle.enforce_fd ~rel ~lhs ~attr in
          log (Fd_enforced (rel, lhs, attr, b));
          b);
      conceptualize_hidden =
        (fun a ->
          let b = oracle.conceptualize_hidden a in
          log (Hidden_considered (a, b));
          b);
    }
  in
  (wrapped, fun () -> List.rev !events)
