(* The structured event log: leveled JSONL with a monotonic sequence
   number per log.

   This replaces ad-hoc Printf.eprintf lines in long-running daemons.
   Two properties the ad-hoc prints lacked: every event is one
   machine-parseable JSON object (no interleaving of partial lines —
   each record is a single write of a complete line), and every event
   carries a sequence number, so a consumer can detect gaps and order
   records even when timestamps tie. *)

type level = Debug | Info | Warn | Error

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

type field =
  | S of string
  | I of int
  | F of float
  | B of bool

type sink = Silent | Stderr | Channel of out_channel

type t = {
  sink : sink;
  min_level : level;
  mutable seq : int;
  owned : bool;  (* close the channel on close? *)
}

let null = { sink = Silent; min_level = Error; seq = 0; owned = false }

let to_stderr ?(level = Info) () =
  { sink = Stderr; min_level = level; seq = 0; owned = false }

let open_file ?(level = Info) path =
  match open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path with
  | oc -> Ok { sink = Channel oc; min_level = level; seq = 0; owned = true }
  | exception Sys_error e -> Error e

let close t =
  match t.sink with
  | Channel oc when t.owned -> ( try close_out oc with Sys_error _ -> ())
  | _ -> ()

let seq t = t.seq

let would_log t level = t.sink <> Silent && level_rank level >= level_rank t.min_level

let event ?(level = Info) t kind fields =
  if would_log t level then begin
    let s = t.seq in
    t.seq <- s + 1;
    let buf = Buffer.create 128 in
    Jsonbuf.obj buf
      ([
         ("seq", fun () -> Jsonbuf.int buf s);
         ( "ts",
           fun () ->
             Buffer.add_string buf
               (Printf.sprintf "%.6f" (Unix.gettimeofday ())) );
         ("level", fun () -> Jsonbuf.escape buf (level_to_string level));
         ("event", fun () -> Jsonbuf.escape buf kind);
       ]
      @ List.map
          (fun (k, v) ->
            ( k,
              fun () ->
                match v with
                | S s -> Jsonbuf.escape buf s
                | I i -> Jsonbuf.int buf i
                | F f -> Buffer.add_string buf (Printf.sprintf "%.6f" f)
                | B b -> Buffer.add_string buf (if b then "true" else "false")
            ))
          fields);
    Buffer.add_char buf '\n';
    let line = Buffer.contents buf in
    (* one write per record: lines stay atomic under concurrent
       connection handling and (for short lines) concurrent appenders *)
    match t.sink with
    | Silent -> ()
    | Stderr ->
      output_string stderr line;
      flush stderr
    | Channel oc -> (
      try
        output_string oc line;
        flush oc
      with Sys_error _ -> ())
  end

let debug t kind fields = event ~level:Debug t kind fields
let info t kind fields = event ~level:Info t kind fields
let warn t kind fields = event ~level:Warn t kind fields
let error t kind fields = event ~level:Error t kind fields
