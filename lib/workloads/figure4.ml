module I = Objcode.Instr

(* Ten routines, five instructions each, laid out consecutively. The
   bodies never execute; only the address ranges, the histogram, and
   the arc records matter to the post-processor. Every arc record's
   call site (entry + 2) holds a genuine indirect call so the profile
   survives linting: a Calli with no known operand is unresolvable,
   which the linter soundly treats as able to reach anything. The
   single direct Call placed in EXAMPLE's body is the one the static
   scanner must discover (EXAMPLE -> SUB3). *)

let names =
  [|
    "CALLER1"; "CALLER2"; "EXAMPLE"; "SUB1"; "SUB1B"; "SUB2"; "SUB3"; "DEPTH1";
    "DEPTH2"; "OTHER";
  |]

let fsize = 5

let entry name =
  let rec find i = if names.(i) = name then i * fsize else find (i + 1) in
  find 0

(* A call site inside a routine: two instructions past its entry. *)
let site name = entry name + 2

let objfile =
  let text =
    Array.concat
      (Array.to_list
         (Array.map
            (fun name ->
              let filler =
                if name = "EXAMPLE" then
                  (* the statically visible, dynamically untraversed call *)
                  I.Call (entry "SUB3", 0)
                else I.Const 0
              in
              [| I.Mcount; I.Enter 0; I.Calli 0; filler; I.Ret |])
            names))
  in
  {
    Objcode.Objfile.text;
    symbols =
      Array.mapi
        (fun i name ->
          { Objcode.Objfile.name; addr = i * fsize; size = fsize; profiled = true })
        names;
    entry = 0;
    globals = [||];
    global_init = [||];
    arrays = [||];
    lines = [||];
    source_name = "figure4";
  }

let ticks =
  [
    ("CALLER1", 26);
    ("EXAMPLE", 30);
    ("SUB1", 120);
    ("SUB1B", 60);
    ("DEPTH1", 120);
    ("DEPTH2", 150);
  ]

let arcs =
  [
    (* spontaneous roots: callers outside the text segment *)
    (-1, "CALLER1", 1);
    (-1, "CALLER2", 1);
    (-1, "OTHER", 1);
    (* EXAMPLE's parents: 4/10 and 6/10 *)
    (site "CALLER1", "EXAMPLE", 4);
    (site "CALLER2", "EXAMPLE", 6);
    (* self-recursion: the +4 *)
    (site "EXAMPLE", "EXAMPLE", 4);
    (* the cycle SUB1 <-> SUB1B, called 40 times from outside,
       20 of them by EXAMPLE *)
    (site "EXAMPLE", "SUB1", 20);
    (site "OTHER", "SUB1", 20);
    (site "SUB1", "SUB1B", 3);
    (site "SUB1B", "SUB1", 2);
    (* the cycle's external child *)
    (site "SUB1", "DEPTH1", 7);
    (* SUB2: called 5 times in all, once by EXAMPLE *)
    (site "EXAMPLE", "SUB2", 1);
    (site "OTHER", "SUB2", 4);
    (site "SUB2", "DEPTH2", 2);
    (* SUB3: 5 calls, none from EXAMPLE *)
    (site "OTHER", "SUB3", 5);
  ]

let gmon =
  let n = Array.length objfile.Objcode.Objfile.text in
  let hist = Gmon.make_hist ~lowpc:0 ~highpc:n ~bucket_size:1 in
  let counts = Array.copy hist.h_counts in
  List.iter (fun (name, t) -> counts.(entry name + 1) <- t) ticks;
  {
    Gmon.hist = { hist with h_counts = counts };
    arcs =
      List.map
        (fun (from, callee, count) ->
          { Gmon.a_from = from; a_self = entry callee; a_count = count })
        arcs
      |> List.sort (fun (a : Gmon.arc) b ->
             compare (a.a_from, a.a_self) (b.a_from, b.a_self));
    ticks_per_second = 60;
    cycles_per_tick = 16_666;
    runs = 1;
  }

let expected_total_seconds = 506.0 /. 60.0
