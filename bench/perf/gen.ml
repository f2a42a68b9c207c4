(* Seeded Mini program generator with an independent reference
   evaluator.

   A program is first built as a small description (below), then
   rendered to Mini source. The programs under test only ever see that
   source. The expected output is computed here, in OCaml, by
   evaluating the description directly, so a check against it never
   trusts the parser, the compiler or the VM being measured.

   Every generated function has the same skeleton:

     fun fK(x, d) {
       var s = (x * A + B) % 1000003;
       if (d <= 0) { return s; }
       ...body...
       return s;
     }

   [d] is the remaining call depth. Every call passes [d - 1], so any
   call graph, recursive ones included, terminates. Values stay in
   [0, 1000003), so products fit in a machine word with room to spare
   and OCaml's [mod] and Mini's [%] agree. Accessor leaves
   [gK(x) = (x * A + B) % 1000003] are single-return and pure, which is
   what the inliner looks for. *)

let modulus = 1_000_003

type target =
  | Fn of int  (** direct call to fK *)
  | Slot of int  (** indirect call through [tbl[(s + k) % T]] *)

type stmt =
  | Mix of int * int  (** s = (s * a + b) % P *)
  | Mix_i of int  (** s = (s + i * a) % P, i the innermost loop index *)
  | Acc of int  (** s = (s + gK(s)) % P *)
  | Call of target  (** s = (s + f(s % 1000, d - 1)) % P *)
  | If of int * int * stmt list * stmt list  (** if (s % m < k) ... else ... *)
  | Loop of int * stmt list  (** n iterations *)

type fn = { a : int; b : int; body : stmt list }

type acc = { ga : int; gb : int }

type t = {
  name : string;
  funs : fn array;
  accs : acc array;
  table : int array;  (** funref table: function indices *)
  init : int;  (** main's starting value *)
  reps : int;  (** main's outer iterations *)
  roots : (int * int) list;  (** (function, depth) called each iteration *)
  sweep : int;  (** depth for a call through every table slot; 0 = none *)
}

(* ------------------------------------------------------------------ *)
(* Rendering *)

let rec loop_depth stmts =
  List.fold_left
    (fun m s ->
      match s with
      | Loop (_, b) -> max m (1 + loop_depth b)
      | If (_, _, a, b) -> max m (max (loop_depth a) (loop_depth b))
      | _ -> m)
    0 stmts

let source p =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.bprintf b fmt in
  let tsize = Array.length p.table in
  let set e = pf "s = (%s) %% %d;\n" e modulus in
  let rec stmt ind depth = function
    | Mix (a, c) ->
      pf "%s" ind;
      set (Printf.sprintf "s * %d + %d" a c)
    | Mix_i a ->
      pf "%s" ind;
      set (Printf.sprintf "s + i%d * %d" (depth - 1) a)
    | Acc k ->
      pf "%s" ind;
      set (Printf.sprintf "s + g%d(s)" k)
    | Call (Fn j) ->
      pf "%s" ind;
      set (Printf.sprintf "s + f%d(s %% 1000, d - 1)" j)
    | Call (Slot k) ->
      pf "%s" ind;
      set
        (Printf.sprintf "s + tbl[(s + %d) %% %d](s %% 1000, d - 1)" k tsize)
    | If (m, k, yes, no) ->
      pf "%sif (s %% %d < %d) {\n" ind m k;
      List.iter (stmt (ind ^ "  ") depth) yes;
      if no = [] then pf "%s}\n" ind
      else begin
        pf "%s} else {\n" ind;
        List.iter (stmt (ind ^ "  ") depth) no;
        pf "%s}\n" ind
      end
    | Loop (n, body) ->
      pf "%sfor (i%d = 0; i%d < %d; i%d = i%d + 1) {\n" ind depth depth n depth
        depth;
      List.iter (stmt (ind ^ "  ") (depth + 1)) body;
      pf "%s}\n" ind
  in
  if tsize > 0 then pf "array tbl[%d];\n\n" tsize;
  Array.iteri
    (fun k g -> pf "fun g%d(x) { return (x * %d + %d) %% %d; }\n" k g.ga g.gb modulus)
    p.accs;
  Array.iteri
    (fun k f ->
      pf "\nfun f%d(x, d) {\n  var s = (x * %d + %d) %% %d;\n" k f.a f.b modulus;
      for i = 0 to loop_depth f.body - 1 do
        pf "  var i%d;\n" i
      done;
      pf "  if (d <= 0) { return s; }\n";
      List.iter (stmt "  " 0) f.body;
      pf "  return s;\n}\n")
    p.funs;
  pf "\nfun main() {\n  var s = %d;\n  var r;\n  var t;\n" p.init;
  Array.iteri (fun k j -> pf "  tbl[%d] = f%d;\n" k j) p.table;
  pf "  for (r = 0; r < %d; r = r + 1) {\n" p.reps;
  List.iter
    (fun (k, d) ->
      pf "    s = (s + f%d((s + r) %% 1000, %d)) %% %d;\n" k d modulus)
    p.roots;
  if p.sweep > 0 && tsize > 0 then
    pf
      "    for (t = 0; t < %d; t = t + 1) { s = (s + tbl[t](s %% 1000, %d)) %% \
       %d; }\n"
      tsize p.sweep modulus;
  pf "  }\n  print(s);\n  return 0;\n}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* The reference evaluator *)

(* Rough VM instructions per construct, used only to size [reps] so a
   run lands near a target amount of work; correctness never depends
   on them. *)
let w_call = 24
let w_acc = 16
let w_mix = 9
let w_iter = 7
let w_if = 6

(* [eval p ~reps] is main's final value and the estimated number of
   VM instructions it takes to get there. *)
let eval p ~reps =
  let work = ref 0 in
  let tsize = Array.length p.table in
  let idx = Array.make (1 + Array.fold_left (fun m f -> max m (loop_depth f.body)) 0 p.funs) 0 in
  let rec call k x d =
    work := !work + w_call;
    let f = p.funs.(k) in
    let s = ((x * f.a) + f.b) mod modulus in
    if d <= 0 then s else block f.body s d 0
  and block stmts s d depth =
    List.fold_left (fun s st -> step st s d depth) s stmts
  and step st s d depth =
    match st with
    | Mix (a, c) ->
      work := !work + w_mix;
      ((s * a) + c) mod modulus
    | Mix_i a ->
      work := !work + w_mix;
      (s + (idx.(depth - 1) * a)) mod modulus
    | Acc k ->
      work := !work + w_acc;
      let g = p.accs.(k) in
      (s + (((s * g.ga) + g.gb) mod modulus)) mod modulus
    | Call (Fn j) -> (s + call j (s mod 1000) (d - 1)) mod modulus
    | Call (Slot k) ->
      (s + call p.table.((s + k) mod tsize) (s mod 1000) (d - 1)) mod modulus
    | If (m, k, yes, no) ->
      work := !work + w_if;
      if s mod m < k then block yes s d depth else block no s d depth
    | Loop (n, body) ->
      let s = ref s in
      for i = 0 to n - 1 do
        work := !work + w_iter;
        idx.(depth) <- i;
        s := block body !s d (depth + 1)
      done;
      !s
  in
  let s = ref p.init in
  for r = 0 to reps - 1 do
    List.iter
      (fun (k, d) -> s := (!s + call k ((!s + r) mod 1000) d) mod modulus)
      p.roots;
    if p.sweep > 0 then
      for t = 0 to tsize - 1 do
        s := (!s + call p.table.(t) (!s mod 1000) p.sweep) mod modulus
      done
  done;
  (!s, !work)

let expected_output p = Printf.sprintf "%d\n" (fst (eval p ~reps:p.reps))

(* Pick [reps] so the whole run is about [target] VM instructions. *)
let sized p ~target =
  let probe = 4 in
  let _, w = eval { p with reps = probe } ~reps:probe in
  let per_rep = max 1 (w / probe) in
  { p with reps = max 1 (int_of_float (target /. float_of_int per_rep)) }

(* ------------------------------------------------------------------ *)
(* Shapes *)

let rand seed salt = Random.State.make [| seed; salt |]
let pick st lo hi = lo + Random.State.int st (hi - lo + 1)
let coin st pct = Random.State.int st 100 < pct
let coef st = pick st 2 997

let accessors st n = Array.init n (fun _ -> { ga = coef st; gb = coef st })

let scaled scale n lo = max lo (int_of_float (Float.round (float_of_int n *. scale)))

(* A layered call DAG: functions in layer [l] call [calls] (a range)
   functions of layer [l + 1]; [back_pct] of the calls instead go back to an
   earlier function (recursion, bounded by [d]); [slot_pct] go through
   the funref table. Each function spends its time in a loop whose
   body mixes arithmetic with accessor calls: [mixes] and [accs] set
   how many of each per iteration, which is how the generator sweeps
   call density. *)
type layered = {
  l_n : int;
  l_layers : int;
  l_calls : int * int;
  l_accs : int;
  l_iters : int;
  l_mixes : int;
  l_acc_calls : int;
  l_branchy : bool;
  l_back_pct : int;
  l_slot_pct : int;
  l_table : int;
}

let layered st ~name s =
  let n = max s.l_layers s.l_n in
  let layer_of i = i * s.l_layers / n in
  let first_of l = ((l * n) + s.l_layers - 1) / s.l_layers in
  let in_layer l = (first_of l, first_of (l + 1) - 1) in
  let n_acc = max 1 s.l_accs in
  let loop_body () =
    let arith = List.init s.l_mixes (fun _ -> Mix (coef st, coef st)) in
    let calls = List.init s.l_acc_calls (fun _ -> Acc (Random.State.int st n_acc)) in
    let body = (Mix_i (coef st) :: arith) @ calls in
    if s.l_branchy then [ If (8, 6, body, [ Mix (coef st, coef st) ]) ] else body
  in
  let table =
    if s.l_table = 0 then [||]
    else
      let lo, _ = in_layer (min (s.l_layers - 1) 1) in
      Array.init s.l_table (fun _ -> pick st lo (n - 1))
  in
  let funs =
    Array.init n (fun i ->
        let l = layer_of i in
        let calls =
          if l >= s.l_layers - 1 then []
          else
            List.init (pick st (fst s.l_calls) (snd s.l_calls)) (fun _ ->
                if i > 0 && coin st s.l_back_pct then Call (Fn (Random.State.int st i))
                else if Array.length table > 0 && coin st s.l_slot_pct then
                  Call (Slot (Random.State.int st (Array.length table)))
                else
                  let lo, hi = in_layer (l + 1) in
                  Call (Fn (pick st lo hi)))
        in
        { a = coef st; b = coef st; body = Loop (s.l_iters, loop_body ()) :: calls })
  in
  let lo, hi = in_layer 0 in
  {
    name;
    funs;
    accs = accessors st n_acc;
    table;
    init = pick st 1 999;
    reps = 1;
    roots = List.init (hi - lo + 1) (fun k -> (lo + k, s.l_layers));
    sweep = 0;
  }

(* run-long: ten programs, slot 0 loop-dense (about 200 instructions
   per call) through slot 9 call-dense (about 20), 20-60 functions.
   Slot 4 dispatches half of its calls through a funref table. Each
   run is about 1M instructions, so a pass over both builds of all ten
   takes about a second. *)
let run_long ~seed ~scale slot =
  let st = rand seed (100 + slot) in
  let t = float_of_int slot /. 9.0 in
  let n = 20 + (40 * slot / 9) + Random.State.int st 3 in
  let mixes = int_of_float (Float.round (3.0 *. (1.0 -. t))) in
  let p =
    layered st
      ~name:(Printf.sprintf "run%d" slot)
      {
        l_n = n;
        l_layers = 4;
        l_calls = (1, 3);
        l_accs = 4 + (n / 8);
        l_iters = 6;
        l_mixes = mixes;
        l_acc_calls = 3 - mixes;
        l_branchy = false;
        l_back_pct = 0;
        l_slot_pct = (if slot = 4 then 50 else 0);
        l_table = (if slot = 4 then 8 else 0);
      }
  in
  sized p ~target:(1.0e6 *. scale)

(* report-large: five programs of 100-750 functions. Each function
   calls its successor and 1-3 more functions ahead within a window of
   32. Functions form groups of four; in every other group the last
   member calls back to the first, closing a small cycle (about 4% of
   all calls go back). One run of 50-59 consecutive functions is a
   single group whose last member calls its first, the one large
   cycle. No call leaves a group backwards, so the cycles stay apart
   instead of merging into one, and their number does not depend on
   the seed. Indirect calls go through a funref table of functions
   from the last 5%, which call nothing indirectly, so they close no
   cycle either. [main] calls every function once with depth 1, then
   every table slot, so every static arc is also traversed. *)
(* Five size classes, equally weighted, put the median report in the
   middle of one class and the 90th percentile in the middle of the
   largest, instead of on the step between two. *)
let report_sizes = [| 100; 250; 400; 550; 750 |]

let report_large ~seed ~scale slot =
  let st = rand seed (200 + slot) in
  let n = scaled scale report_sizes.(slot) 12 in
  let n_acc = max 1 (n / 10) in
  let ring = min (n - 1) (50 + Random.State.int st 10) in
  let r0 = Random.State.int st (n - ring) in
  let group i =
    if i >= r0 && i < r0 + ring then r0
    else if i >= r0 + ring then max (r0 + ring) (i / 4 * 4)
    else i / 4 * 4
  in
  let tail = n - max 1 (n / 20) in
  let table = Array.init (max 4 (n / 20)) (fun _ -> pick st tail (n - 1)) in
  let funs =
    Array.init n (fun i ->
        let extra =
          List.init (pick st 1 3) (fun _ ->
              if i < tail && coin st 3 then
                Call (Slot (Random.State.int st (Array.length table)))
              else Call (Fn (min (n - 1) (i + pick st 1 32))))
        in
        let closing =
          if i = r0 + ring - 1 then [ Call (Fn r0) ]
          else if
            (i < r0 || i >= r0 + ring)
            && i = group i + 3
            && i / 4 mod 2 = 0
          then [ Call (Fn (group i)) ]
          else []
        in
        let calls =
          List.filter (fun c -> c <> Call (Fn i)) ((Call (Fn (i + 1)) :: extra) @ closing)
          |> List.filter (fun c -> c <> Call (Fn n))
        in
        let work =
          [ Loop (2, [ Mix_i (coef st); Acc (Random.State.int st n_acc) ]) ]
        in
        { a = coef st; b = coef st; body = work @ calls })
  in
  {
    name = Printf.sprintf "large%d" slot;
    funs;
    accs = accessors st n_acc;
    table;
    init = pick st 1 999;
    reps = 1;
    roots = List.init n (fun k -> (k, 1));
    sweep = 1;
  }

(* pgo-loop: 5 programs of 20-300 functions with hot accessor leaves
   (inlining), a skewed branch in every loop (block layout), and 10%
   back calls (mutual recursion). Each run is about 300k instructions
   (about 1M cycles), a short profiling run that keeps the VM's share
   of a round small. Five programs, like the five report sizes, put the
   median and the 90th-percentile round inside one program's rounds.
   Sizes and fan-out are fixed, so the seed moves a round's cost
   little. *)
let pgo_programs = 5

let pgo_loop ~seed ~scale slot =
  let st = rand seed (300 + slot) in
  let n = scaled scale (20 + (280 * slot / (pgo_programs - 1))) 8 in
  let p =
    layered st
      ~name:(Printf.sprintf "pgo%d" slot)
      {
        l_n = n;
        l_layers = 4;
        l_calls = (2, 2);
        l_accs = 3 + (n / 10);
        l_iters = 4;
        l_mixes = 1;
        l_acc_calls = 2;
        l_branchy = true;
        l_back_pct = 10;
        l_slot_pct = 5;
        l_table = 4;
      }
  in
  sized p ~target:(3.0e5 *. scale)

(* fleet-mixed: one small mid-density program; the profiles of its runs
   are the fleet's payloads. A fixed call count keeps the payload size,
   which sets the cost of every query, about the same for every seed. *)
let fleet ~seed ~scale =
  let st = rand seed 400 in
  let p =
    layered st ~name:"fleet"
      {
        l_n = 12;
        l_layers = 4;
        l_calls = (2, 2);
        l_accs = 4;
        l_iters = 3;
        l_mixes = 1;
        l_acc_calls = 1;
        l_branchy = true;
        l_back_pct = 0;
        l_slot_pct = 0;
        l_table = 0;
      }
  in
  sized p ~target:(3.0e5 *. scale)
