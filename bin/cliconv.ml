(* Integer options with a lower bound. A value below it would crash a
   tool or leave it unable to work (a clock that never ticks, a
   sampler with room for no stack, a daemon that refuses every
   connection), so the command line refuses it: cmdliner exits 124
   and names the option. *)

let at_least lo what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a %s integer, got %S" what s))
  in
  Cmdliner.Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let positive = at_least 1 "positive"
let non_negative = at_least 0 "non-negative"
