(* Robustness: random and adversarial inputs at every boundary of the
   system must produce clean errors (or clean faults), never OCaml
   exceptions, and the analyses must hold their invariants on every
   well-formed program a generator can produce. *)


let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Random text into the parsers *)

let token_soup_gen =
  QCheck.Gen.(
    let word =
      oneofl
        [ "fun"; "var"; "array"; "if"; "else"; "while"; "for"; "return"; "x";
          "main"; "f"; "42"; "0"; "+"; "-"; "*"; "/"; "%"; "("; ")"; "{"; "}";
          "["; "]"; ";"; ","; "="; "=="; "<"; "<="; "&&"; "||"; "!"; "//c\n";
          "/*c*/" ]
    in
    map (String.concat " ") (list_size (int_range 0 60) word))

let parser_never_crashes =
  QCheck.Test.make ~name:"parser: token soup yields a program or Parser.Error"
    ~count:1000
    (QCheck.make ~print:Fun.id token_soup_gen)
    (fun src ->
      match Mini.Parser.parse_program src with
      | _ -> true
      | exception Mini.Parser.Error _ -> true)

let lexer_never_crashes =
  QCheck.Test.make ~name:"lexer: arbitrary bytes yield tokens or Lexer.Error"
    ~count:1000
    QCheck.(string_gen Gen.(char_range '\000' '\255'))
    (fun src ->
      match Mini.Lexer.tokenize src with
      | _ -> true
      | exception Mini.Lexer.Error _ -> true)

(* ------------------------------------------------------------------ *)
(* Random bytes into the binary readers *)

let gmon_reader_total =
  QCheck.Test.make ~name:"gmon reader: random bytes never raise" ~count:500
    QCheck.(string_gen Gen.(char_range '\000' '\255'))
    (fun s -> match Gmon.of_bytes s with Ok _ | Error _ -> true)

let gmon_reader_bitflips =
  QCheck.Test.make ~name:"gmon reader: bit-flipped real files never raise"
    ~count:300
    QCheck.(pair small_nat small_nat)
    (fun (pos_seed, bit) ->
      let g =
        {
          Gmon.hist =
            { h_lowpc = 0; h_highpc = 16; h_bucket_size = 1;
              h_counts = Array.init 16 (fun i -> i) };
          arcs = [ { Gmon.a_from = 2; a_self = 4; a_count = 9 } ];
          ticks_per_second = 60;
          cycles_per_tick = 16_666;
          runs = 1;
        }
      in
      let bytes = Bytes.of_string (Gmon.to_bytes g) in
      let pos = pos_seed mod Bytes.length bytes in
      Bytes.set bytes pos
        (Char.chr (Char.code (Bytes.get bytes pos) lxor (1 lsl (bit mod 8))));
      match Gmon.of_bytes (Bytes.to_string bytes) with
      | Ok _ | Error _ -> true)

let salvage_reader_total =
  QCheck.Test.make ~name:"salvage decoder: random bytes never raise; Ok validates"
    ~count:500
    QCheck.(string_gen Gen.(char_range '\000' '\255'))
    (fun s ->
      match Gmon.decode ~mode:`Salvage s with
      | Error _ -> true
      | Ok (g, _) -> Gmon.validate g = Ok ())

(* A random profile, truncated at a random point and peppered with
   random byte flips: salvage must never raise, and anything it
   recovers must validate. Under pure truncation it must additionally
   be a sub-profile — salvage never invents ticks or arcs. *)
let random_profile_gen =
  QCheck.Gen.(
    let* highpc = int_range 1 24 in
    let* ticks =
      list_size (int_range 0 8) (pair (int_range 0 (highpc - 1)) (int_range 0 99))
    in
    let* arcs =
      list_size (int_range 0 8)
        (triple (int_range (-2) 30) (int_range 0 30) (int_range 0 50))
    in
    let hist = Gmon.make_hist ~lowpc:0 ~highpc ~bucket_size:1 in
    let counts = Array.copy hist.Gmon.h_counts in
    List.iter (fun (b, c) -> counts.(b) <- c) ticks;
    let arcs =
      List.sort_uniq
        (fun (a : Gmon.arc) b -> compare (a.a_from, a.a_self) (b.a_from, b.a_self))
        (List.map (fun (f, s, c) -> { Gmon.a_from = f; a_self = s; a_count = c }) arcs)
    in
    return
      { Gmon.hist = { hist with h_counts = counts }; arcs;
        ticks_per_second = 60; cycles_per_tick = 16_666; runs = 1 })

let salvage_truncation_is_subset =
  QCheck.Test.make
    ~name:"salvage decoder: truncated files yield valid sub-profiles"
    ~count:300
    (QCheck.make
       ~print:(fun (g, cut) -> Printf.sprintf "cut=%d of %a" cut
                  (fun () -> Format.asprintf "%a" Gmon.pp) g)
       QCheck.Gen.(pair random_profile_gen small_nat))
    (fun (g, cut_seed) ->
      let bytes = Gmon.to_bytes g in
      let cut = cut_seed mod String.length bytes in
      match Gmon.decode ~mode:`Salvage (String.sub bytes 0 cut) with
      | Error _ -> true (* header damage is unrecoverable by design *)
      | Ok (s, report) ->
        Gmon.validate s = Ok ()
        && Gmon.report_degraded report
        && s.hist.h_highpc = g.hist.h_highpc
        && Array.for_all2 ( >= ) g.hist.h_counts s.hist.h_counts
        && List.for_all (fun a -> List.mem a g.Gmon.arcs) s.Gmon.arcs)

let salvage_mutations_never_raise =
  QCheck.Test.make
    ~name:"salvage decoder: flipped+truncated files never raise; Ok validates"
    ~count:300
    (QCheck.make
       ~print:(fun (_, cut, flips) ->
         Printf.sprintf "cut=%d flips=%d" cut (List.length flips))
       QCheck.Gen.(
         triple random_profile_gen small_nat
           (list_size (int_range 0 5) (pair small_nat (int_range 0 7)))))
    (fun (g, cut_seed, flips) ->
      let bytes = Gmon.to_bytes g in
      let cut = 1 + (cut_seed mod (String.length bytes - 1)) in
      let b = Bytes.of_string (String.sub bytes 0 cut) in
      List.iter
        (fun (pos_seed, bit) ->
          let pos = pos_seed mod Bytes.length b in
          Bytes.set b pos
            (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit))))
        flips;
      let s = Bytes.to_string b in
      (match Gmon.decode ~mode:`Strict s with Ok _ | Error _ -> ());
      match Gmon.decode ~mode:`Salvage s with
      | Error e -> e.Gmon.de_offset >= 0 && e.de_offset <= cut
      | Ok (g', _) -> Gmon.validate g' = Ok ())

let icount_reader_total =
  QCheck.Test.make ~name:"icount reader: random bytes never raise" ~count:500
    QCheck.(string_gen Gen.(char_range '\000' '\255'))
    (fun s -> match Gmon.Icount.of_bytes s with Ok _ | Error _ -> true)

let objfile_reader_total =
  QCheck.Test.make ~name:"objfile reader: random text never raises" ~count:500
    QCheck.(string_gen Gen.printable)
    (fun s ->
      match Objcode.Objfile.of_string ("MINIOBJ 1\n" ^ s) with
      | Ok _ | Error _ -> true)

(* ------------------------------------------------------------------ *)
(* Random well-formed programs through the whole pipeline *)

(* Generates terminating programs: functions may only call
   lower-numbered functions, loops have static bounds, divisors are
   offset to be nonzero. *)
let program_gen =
  let open QCheck.Gen in
  let rec expr_gen ~callees ~locals n =
    if n <= 1 then
      oneof
        [ map (fun k -> Printf.sprintf "%d" k) (int_range (-9) 99);
          (if locals = [] then map string_of_int (int_range 0 9)
           else oneofl locals) ]
    else
      let sub = expr_gen ~callees ~locals (n / 2) in
      oneof
        ([
           map (fun k -> string_of_int k) (int_range 0 99);
           map2 (Printf.sprintf "(%s + %s)") sub sub;
           map2 (Printf.sprintf "(%s - %s)") sub sub;
           map2 (Printf.sprintf "(%s * %s)") sub sub;
           (* the divisor is m%7+8, in [2,14]: never zero *)
           map2 (Printf.sprintf "(%s / (%s %% 7 + 8))") sub sub;
           map2 (Printf.sprintf "(%s < %s)") sub sub;
           map2 (Printf.sprintf "(%s && %s)") sub sub;
         ]
        @
        match callees with
        | [] -> []
        | _ ->
          [ (let* f = oneofl callees in
             let* a = sub in
             return (Printf.sprintf "%s(%s)" f a)) ])
  in
  let stmt_gen ~callees ~locals =
    let expr = expr_gen ~callees ~locals 6 in
    oneof
      [
        (let* l = oneofl locals in
         map (Printf.sprintf "%s = %s;" l) expr);
        (let* l = oneofl locals in
         let* bound = int_range 1 5 in
         map
           (fun e ->
             Printf.sprintf "for (loopv = 0; loopv < %d; loopv = loopv + 1) { %s = %s + %s; }"
               bound l l e)
           expr);
        (let* c = expr in
         let* l = oneofl locals in
         let* e = expr in
         return (Printf.sprintf "if (%s) { %s = %s; }" c l e));
        map (Printf.sprintf "return %s;") expr;
      ]
  in
  let fun_gen ~name ~callees =
    let locals = [ "a"; "b" ] in
    let* stmts = list_size (int_range 1 5) (stmt_gen ~callees ~locals) in
    return
      (Printf.sprintf "fun %s(a) {\n  var b;\n  var loopv;\n  %s\n  return a + b;\n}"
         name (String.concat "\n  " stmts))
  in
  let* n_funs = int_range 1 5 in
  let rec build i acc callees =
    if i > n_funs then return (List.rev acc)
    else
      let name = Printf.sprintf "f%d" i in
      let* f = fun_gen ~name ~callees in
      build (i + 1) (f :: acc) (name :: callees)
  in
  let* funs = build 1 [] [] in
  let* main_body =
    list_size (int_range 1 4)
      (stmt_gen ~callees:(List.init n_funs (fun i -> Printf.sprintf "f%d" (i + 1)))
         ~locals:[ "a"; "b" ])
  in
  return
    (String.concat "\n\n" funs
    ^ Printf.sprintf
        "\n\nfun main() {\n  var a;\n  var b;\n  var loopv;\n  %s\n  return b %% 256;\n}"
        (String.concat "\n  " main_body))

let pipeline_on_random_programs =
  QCheck.Test.make
    ~name:"generated programs compile, run, and analyze with conserved time"
    ~count:60
    (QCheck.make ~print:Fun.id program_gen)
    (fun src ->
      match
        Compile.Codegen.compile_source ~options:Compile.Codegen.profiling_options
          src
      with
      | Error _ -> false (* the generator only makes well-formed programs *)
      | Ok o -> (
        (match Objcode.Objfile.validate o with Ok () -> () | Error es ->
          QCheck.Test.fail_reportf "invalid objfile: %s" (String.concat "; " es));
        let m =
          Vm.Machine.create
            ~config:{ Vm.Machine.default_config with max_cycles = Some 3_000_000 }
            o
        in
        match Vm.Machine.run m with
        | Vm.Machine.Running -> false
        | Vm.Machine.Faulted f ->
          (* generated divisions are nonzero and loops bounded; the
             only legitimate fault is the safety cap *)
          f.reason = "cycle limit exceeded"
        | Vm.Machine.Halted -> (
          match Gprof_core.Report.analyze o (Vm.Machine.profile m) with
          | Error e -> QCheck.Test.fail_reportf "analyze failed: %s" e
          | Ok r ->
            let p = r.profile in
            let rows = Gprof_core.Flat.rows p in
            let sum = List.fold_left (fun a (_, s, _, _) -> a +. s) 0.0 rows in
            abs_float (sum +. p.unattributed -. p.total_time) < 1e-6)))

let transformed_random_programs_agree =
  QCheck.Test.make
    ~name:"constant folding and inlining preserve generated-program results"
    ~count:40
    (QCheck.make ~print:Fun.id program_gen)
    (fun src ->
      let run options =
        match Compile.Codegen.compile_source ~options src with
        | Error _ -> None
        | Ok o -> (
          let m =
            Vm.Machine.create
              ~config:{ Vm.Machine.default_config with max_cycles = Some 3_000_000 }
              o
          in
          match Vm.Machine.run m with
          | Vm.Machine.Halted -> Some (Vm.Machine.result m, Vm.Machine.output m)
          | _ -> None)
      in
      let plain = run Compile.Codegen.default_options in
      let folded =
        run { Compile.Codegen.default_options with fold = true }
      in
      let inlined =
        run
          { Compile.Codegen.default_options with
            inline = [ "f1"; "f2"; "f3"; "f4"; "f5" ] }
      in
      match plain with
      | None -> true (* hit the safety cap; nothing to compare *)
      | Some r -> folded = Some r && inlined = Some r)

(* ------------------------------------------------------------------ *)
(* Parity: the verified VM against the reference interpreter *)

(* Everything a run leaves observable, gathered the same way from
   either machine. *)
type outcome = {
  status : Vm.Machine.status;
  result : int option;
  output : string;
  gmon : string;
  icounts : int array;
  pcounts : int array;
  cycles : int;
  ticks : int;
  instructions : int;
  dispatch : (string * int) list;
  mcount_cycles : int;
  sprof : string option;
  epochs : string option;
  oracle : (int * Vm.Oracle.fun_stat) list option;
  slices : (Vm.Machine.status * int) list;
      (* status and cycle count after each run_cycles slice *)
}

(* How a run is driven: to the end, in run_cycles slices of a budget,
   or one step at a time. *)
type drive = Run | Slices of int | Steps

module Observe (M : sig
  type t

  val create : ?config:Vm.Machine.config -> Objcode.Objfile.t -> t
  val run : t -> Vm.Machine.status
  val run_cycles : t -> int -> Vm.Machine.status
  val step : t -> Vm.Machine.status
  val cycles : t -> int
  val ticks : t -> int
  val result : t -> int option
  val output : t -> string
  val profile : t -> Gmon.t
  val instruction_counts : t -> int array
  val pcounts : t -> int array
  val instructions_executed : t -> int
  val dispatch_counts : t -> (string * int) list
  val mcount_cycles : t -> int
  val sprof : t -> Gmon.Sprof.t option
  val epochs : t -> Gmon.Epoch.t option
  val the_oracle : t -> Vm.Oracle.t option
end) =
struct
  let run drive config o =
    let m = M.create ~config o in
    let rec slices acc n =
      match M.run_cycles m n with
      | Vm.Machine.Running -> slices ((Vm.Machine.Running, M.cycles m) :: acc) n
      | s -> (s, List.rev ((s, M.cycles m) :: acc))
    in
    let rec steps () =
      match M.step m with Vm.Machine.Running -> steps () | s -> (s, [])
    in
    let status, slices =
      match drive with
      | Run -> (M.run m, [])
      | Slices n -> slices [] n
      | Steps -> steps ()
    in
    {
      status;
      result = M.result m;
      output = M.output m;
      gmon = Gmon.to_bytes (M.profile m);
      icounts = M.instruction_counts m;
      pcounts = M.pcounts m;
      cycles = M.cycles m;
      ticks = M.ticks m;
      instructions = M.instructions_executed m;
      dispatch = M.dispatch_counts m;
      mcount_cycles = M.mcount_cycles m;
      sprof = Option.map Gmon.Sprof.to_bytes (M.sprof m);
      epochs = Option.map Gmon.Epoch.to_bytes (M.epochs m);
      oracle = Option.map Vm.Oracle.fun_stats (M.the_oracle m);
      slices;
    }
end

module Verified = Observe (Vm.Machine)
module Reference = Observe (Ref_machine)

let status_to_string = function
  | Vm.Machine.Running -> "running"
  | Halted -> "halted"
  | Faulted f -> Format.asprintf "%a" Vm.Machine.pp_fault f

(* Which observable differs, for the failure report. *)
let first_difference a b =
  let fields =
    [
      ("status", a.status = b.status); ("result", a.result = b.result);
      ("output", a.output = b.output); ("gmon bytes", a.gmon = b.gmon);
      ("icounts", a.icounts = b.icounts); ("pcounts", a.pcounts = b.pcounts);
      ("cycles", a.cycles = b.cycles); ("ticks", a.ticks = b.ticks);
      ("instructions", a.instructions = b.instructions);
      ("dispatch", a.dispatch = b.dispatch);
      ("mcount cycles", a.mcount_cycles = b.mcount_cycles);
      ("sprof", a.sprof = b.sprof); ("epochs", a.epochs = b.epochs);
      ("oracle", a.oracle = b.oracle); ("run_cycles slices", a.slices = b.slices);
    ]
  in
  List.find_map (fun (name, same) -> if same then None else Some name) fields

let parity_error drive config o =
  let v = Verified.run drive config o and r = Reference.run drive config o in
  Option.map
    (fun what ->
      Printf.sprintf "%s differs (verified: %s, %d cycles; reference: %s, %d cycles)"
        what (status_to_string v.status) v.cycles (status_to_string r.status)
        r.cycles)
    (first_difference v r)

let check_parity drive config o =
  match parity_error drive config o with
  | None -> true
  | Some e -> QCheck.Test.fail_report e

(* Every knob the dispatch loop treats specially: stack sampling,
   jittered ticks, epochs, the injected fault, the cycle cap, keying,
   bucket size, and the oracle on or off. A
   clock of 1 or 7 cycles per tick, or run_cycles slices under 50
   cycles, put a horizon on nearly every instruction; those runs keep
   the 40,000-cycle cap. On those clocks a stack walk outlasts a tick,
   and the ticks due inside it start no walk of their own. *)
let config_gen =
  QCheck.Gen.(
    let* cycles_per_tick = oneofl [ 1; 7; 97; 1_000; 16_666 ] in
    let* hist_bucket_size = oneofl [ 1; 4 ] in
    let* keying = oneofl Vm.Monitor.[ Site_primary; Callee_primary ] in
    let* oracle = bool in
    let* stack_interval = opt (int_range 1 3) in
    let* tick_jitter = oneofl [ 0.0; 0.3 ] in
    let* seed = int_range 1 1_000 in
    let* max_depth = oneofl [ 2; 4; 100_000 ] in
    let* fault_after_instr = opt (int_range 0 20_000) in
    let* epoch_ticks = opt (int_range 1 8) in
    let* drive =
      frequency
        [ (2, return Run); (1, map (fun n -> Slices n) (int_range 1 49));
          (2, map (fun n -> Slices n) (int_range 50 20_000)); (1, return Steps) ]
    in
    let fine =
      cycles_per_tick < 97 || (match drive with Slices n -> n < 50 | _ -> false)
    in
    let* max_cycles =
      if fine then return (Some 40_000) else oneofl [ Some 3_000_000; Some 40_000 ]
    in
    return
      ( { Vm.Machine.default_config with
          cycles_per_tick; hist_bucket_size; keying; oracle; stack_interval;
          tick_jitter; seed; max_cycles; max_depth; fault_after_instr; epoch_ticks },
        drive ))

let print_config ((c : Vm.Machine.config), drive) =
  let opt = function None -> "-" | Some n -> string_of_int n in
  let drive =
    match drive with
    | Run -> "run"
    | Slices n -> Printf.sprintf "run_cycles %d" n
    | Steps -> "step"
  in
  Printf.sprintf
    "cpt=%d bucket=%d callee=%b oracle=%b stack=%s jitter=%g seed=%d \
     max_cycles=%s max_depth=%d fault_after=%s epochs=%s drive=%s"
    c.cycles_per_tick c.hist_bucket_size (c.keying = Vm.Monitor.Callee_primary)
    c.oracle (opt c.stack_interval) c.tick_jitter c.seed (opt c.max_cycles)
    c.max_depth (opt c.fault_after_instr) (opt c.epoch_ticks) drive

(* The four builds the repository emits: plain, -pg, prof counters,
   and constant-folded. *)
let builds =
  Compile.Codegen.
    [
      ("plain", default_options); ("pg", profiling_options);
      ("count", { default_options with count = true });
      ("fold", { profiling_options with fold = true });
    ]

let compile_build options src =
  match Compile.Codegen.compile_source ~options src with
  | Ok o -> o
  | Error e -> QCheck.Test.fail_reportf "compile: %s" e

let parity_on_random_programs =
  QCheck.Test.make ~name:"VM parity: verified dispatch = reference interpreter"
    ~count:80
    (QCheck.make
       ~print:(fun (src, b, cfg) ->
         Printf.sprintf "build %s, %s\n%s" (fst (List.nth builds b))
           (print_config cfg) src)
       QCheck.Gen.(triple program_gen (int_bound 3) config_gen))
    (fun (src, b, (config, drive)) ->
      check_parity drive config (compile_build (snd (List.nth builds b)) src))

(* Every stock workload in every build, each under a config drawn from
   a fixed seed; runs are capped at 1.5M cycles to bound the time. *)
let test_parity_on_workloads () =
  let rand = Random.State.make [| 20261017 |] in
  List.iter
    (fun (w : Workloads.Programs.t) ->
      List.iter
        (fun (build, options) ->
          let config, drive = config_gen rand in
          let config =
            { config with
              max_cycles = Some 1_500_000;
              cycles_per_tick = max 1_000 config.cycles_per_tick }
          in
          let o = compile_build options w.w_source in
          Option.iter
            (fun e ->
              Alcotest.failf "%s/%s under %s: %s" w.w_name build
                (print_config (config, drive)) e)
            (parity_error drive config o))
        builds)
    Workloads.Programs.all

(* ------------------------------------------------------------------ *)
(* Parity: the front end against the reference lexer and parser *)

(* One input per seed, so a failure replays from the seed alone:
   arbitrary bytes, a generated program, token soup, or a stock
   workload with one to three random byte edits, deletions and
   insertions. *)
let frontend_input seed =
  let rand = Random.State.make [| seed |] in
  let any_byte = QCheck.Gen.char_range '\000' '\255' in
  let byte =
    QCheck.Gen.(
      frequency
        [ (1, any_byte);
          (3, oneofl (List.of_seq (String.to_seq "$@;,{}()[]=<>!&|/*+-09x \n"))) ])
  in
  let edit src =
    let n = String.length src in
    let p = Random.State.int rand (n + 1) in
    let c = String.make 1 (byte rand) in
    match Random.State.int rand 3 with
    | 0 when p < n -> String.sub src 0 p ^ c ^ String.sub src (p + 1) (n - p - 1)
    | 1 when p < n -> String.sub src 0 p ^ String.sub src (p + 1) (n - p - 1)
    | _ -> String.sub src 0 p ^ c ^ String.sub src p (n - p)
  in
  match seed mod 4 with
  | 0 -> ("bytes", QCheck.Gen.(string_size ~gen:any_byte (int_range 0 120)) rand)
  | 1 -> ("program", program_gen rand)
  | 2 -> ("token soup", token_soup_gen rand)
  | _ ->
    let all = Workloads.Programs.all in
    let w = List.nth all (Random.State.int rand (List.length all)) in
    let rec edits k src = if k = 0 then src else edits (k - 1) (edit src) in
    ("edited " ^ w.w_name, edits (1 + Random.State.int rand 3) w.w_source)

let outcome f raised src =
  match f src with v -> Ok v | exception e -> (
    match raised e with Some err -> Error err | None -> raise e)

let lex_error = function Mini.Lexer.Error (m, l) -> Some (m, l) | _ -> None
let ref_lex_error = function Ref_lexer.Error (m, l) -> Some (m, l) | _ -> None
let parse_error = function Mini.Parser.Error (m, l) -> Some (m, l) | _ -> None
let ref_parse_error = function Ref_parser.Error (m, l) -> Some (m, l) | _ -> None

let show_outcome show = function
  | Ok v -> show v
  | Error (m, l) -> Format.asprintf "error at %a: %s" Mini.Ast.pp_loc l m

let before (a : Mini.Ast.loc) (b : Mini.Ast.loc) =
  a.line < b.line || (a.line = b.line && a.col < b.col)

(* the byte offset of [loc] in [src] *)
let offset_of src (loc : Mini.Ast.loc) =
  let rec line_start i line =
    if line = 1 then i else line_start (String.index_from src i '\n' + 1) (line - 1)
  in
  line_start 0 loc.line + loc.col - 1

(* The lexers agree exactly. The parsers agree exactly (locations
   included, so [=] and not [Ast.equal_program]), but for two
   differences. The reference lexes the whole source before parsing,
   so a lexical error at L wins over any syntax error; the new parser
   stops at the first error in file order. So where the lexer fails
   at L, the new parser must report what the reference parser reports
   on the source cut at L if that is an error before L, and the
   lexical error otherwise. And a statement that starts with a name
   now gets the non-associativity check, where the reference expected
   a ';' at the second comparison operator. *)
let check_frontend src =
  let lexed = outcome Mini.Lexer.tokenize lex_error src in
  let ref_lexed = outcome Ref_lexer.tokenize ref_lex_error src in
  if lexed <> ref_lexed then
    QCheck.Test.fail_reportf "tokenize gives %s, the reference %s"
      (show_outcome (fun t -> Printf.sprintf "%d tokens" (List.length t)) lexed)
      (show_outcome (fun t -> Printf.sprintf "%d tokens" (List.length t)) ref_lexed);
  let rechecked expected ours =
    match (expected, ours) with
    | Error (m, at), Error ("comparison operators do not associate; parenthesize", at')
      ->
      at = at'
      && List.exists
           (fun op -> m = "expected ';' but found " ^ Mini.Lexer.token_name op)
           Mini.Lexer.[ LT; LE; GT; GE; EQ; NE ]
    | _ -> false
  in
  let agree what ours ref_parse =
    let reference = outcome ref_parse ref_parse_error src in
    let expected =
      match ref_lexed with
      | Ok _ -> reference
      | Error (_, at) -> (
        let cut = String.sub src 0 (offset_of src at) in
        match outcome ref_parse ref_parse_error cut with
        | Error (_, cut_at) as first when before cut_at at -> first
        | _ -> reference)
    in
    if ours <> expected && not (rechecked expected ours) then
      QCheck.Test.fail_reportf "%s gives %s, expected %s (the reference %s)" what
        (show_outcome (fun _ -> "a value") ours)
        (show_outcome (fun _ -> "a value") expected)
        (show_outcome (fun _ -> "a value") reference)
  in
  agree "parse_program"
    (outcome Mini.Parser.parse_program parse_error src)
    Ref_parser.parse_program;
  agree "parse_expr" (outcome Mini.Parser.parse_expr parse_error src)
    Ref_parser.parse_expr

let frontend_parity =
  QCheck.Test.make ~name:"front end: lexer and parser = reference" ~count:1500
    (QCheck.make
       ~print:(fun seed ->
         let kind, src = frontend_input seed in
         Printf.sprintf "seed %d (%s): %S" seed kind src)
       QCheck.Gen.(int_bound 1_000_000_000))
    (fun seed ->
      check_frontend (snd (frontend_input seed));
      true)

(* Each allowed difference, and the agreement around it, on inputs
   the generators seldom reach. *)
let test_frontend_hand_cases () =
  List.iter check_frontend
    [ "fun main() {\n  var x = 1\n  return x +$;\n}\n"; "1 2 $";
      "var x = 1 2 $;"; "array a[0$];"; "fun f() { $ return 1 }";
      "fun f(y) { y < 2 < 3; }"; "fun f(y) { y == 2 != 3 $ }";
      "fun f(y) { (y) < 2 < 3; }"; "fun f(y) { y = 1 < 2 < 3; }";
      "fun f(y) { y + 1 = 3; }"; "fun f() { /* open" ]

(* ------------------------------------------------------------------ *)
(* Assembler parity: Objcode.Asm against Ref_asm, the copy from before
   labels were resolved per function, on compiler output and on
   mutations of it that the assembler must refuse. *)

module Asm = Objcode.Asm

(* No edit (one input in three) or one to three; each edit names
   itself for the failure report. *)
let mutate rand (a : Asm.aprog) =
  let pick l = List.nth l (Random.State.int rand (List.length l)) in
  let insert x l =
    let k = Random.State.int rand (List.length l + 1) in
    List.filteri (fun i _ -> i < k) l @ (x :: List.filteri (fun i _ -> i >= k) l)
  in
  let on_fun what f (a : Asm.aprog) =
    let k = Random.State.int rand (List.length a.a_funs) in
    ( what,
      { a with a_funs = List.mapi (fun i g -> if i = k then f g else g) a.a_funs } )
  in
  let labels (f : Asm.afun) =
    List.filter_map (function Asm.Label l -> Some l | _ -> None) f.items
  in
  let edit (a : Asm.aprog) =
    match Random.State.int rand 11 with
    | 0 ->
      let keyed = List.map (fun f -> (Random.State.bits rand, f)) a.a_funs in
      ("shuffled functions", { a with a_funs = List.map snd (List.sort compare keyed) })
    | 1 ->
      on_fun "a label duplicated"
        (fun f ->
          match labels f with
          | [] -> f
          | ls -> { f with items = insert (Asm.Label (pick ls)) f.items })
        a
    | 2 ->
      on_fun "a label removed"
        (fun f ->
          match labels f with
          | [] -> f
          | ls ->
            let l = pick ls in
            { f with items = List.filter (fun it -> it <> Asm.Label l) f.items })
        a
    | 3 ->
      on_fun "a jump or call to an unknown name"
        (fun f ->
          let ins =
            pick [ Asm.AJump "Lnowhere"; AJumpz "Lnowhere"; ACall ("nosuch", 1);
                   AFunref "nosuch" ]
          in
          { f with items = insert (Asm.Ins ins) f.items })
        a
    | 4 ->
      on_fun "an unknown global or array"
        (fun f ->
          let ins = pick [ Asm.AGload "nosuch"; AGstore "nosuch"; AAload "nosuch";
                           AAstore "nosuch" ] in
          { f with items = insert (Asm.Ins ins) f.items })
        a
    | 5 ->
      on_fun "an empty body"
        (fun f ->
          { f with items = List.filter (function Asm.Ins _ -> false | _ -> true) f.items })
        a
    | 6 ->
      on_fun "a negative SrcLine"
        (fun f -> { f with items = insert (Asm.SrcLine (-1 - Random.State.int rand 9)) f.items })
        a
    | 7 -> ("a duplicate function", { a with a_funs = a.a_funs @ [ pick a.a_funs ] })
    | 8 -> ("a missing entry", { a with a_entry = "nosuch" })
    | 9 -> ("an array of length 0", { a with a_arrays = a.a_arrays @ [ ("empty", 0) ] })
    | _ ->
      (* a use of a real global and array, so data names resolve too *)
      on_fun "a global and an array added and used"
        (fun f ->
          { f with
            items =
              insert (Asm.Ins (AGload "g0"))
                (insert (Asm.Ins (AAstore "a0")) f.items) })
        { a with a_globals = a.a_globals @ [ ("g0", 7) ];
                 a_arrays = a.a_arrays @ [ ("a0", 3) ] }
  in
  let rec go k (names, a) =
    if k = 0 then (List.rev names, a)
    else
      let name, a = edit a in
      go (k - 1) (name :: names, a)
  in
  if Random.State.int rand 3 = 0 then ([], a) else go (1 + Random.State.int rand 3) ([], a)

(* A generated program, built plain or -pg, or (one seed in five) a
   stock workload, which has globals and arrays; then its edits. *)
let asm_input seed =
  let rand = Random.State.make [| seed |] in
  let name, src =
    if seed mod 5 = 0 then
      let all = Workloads.Programs.all in
      let w = List.nth all (Random.State.int rand (List.length all)) in
      (w.w_name, w.w_source)
    else ("generated", program_gen rand)
  in
  let build, options = List.nth builds (Random.State.int rand 2) in
  let aprog = Compile.Codegen.to_asm ~options (Mini.Parser.parse_program src) in
  let edits, aprog = mutate rand aprog in
  (Printf.sprintf "%s %s, %s" name build
     (match edits with [] -> "unedited" | es -> String.concat "; " es),
   aprog)

let asm_parity =
  QCheck.Test.make ~name:"assembler = reference, on compiler output and its edits"
    ~count:400
    (QCheck.make
       ~print:(fun seed -> Printf.sprintf "seed %d: %s" seed (fst (asm_input seed)))
       QCheck.Gen.(int_bound 1_000_000_000))
    (fun seed ->
      let _, aprog = asm_input seed in
      match (Asm.assemble aprog, Ref_asm.assemble aprog) with
      | Ok o, Ok r ->
        Objcode.Objfile.to_string o = Objcode.Objfile.to_string r
        || QCheck.Test.fail_report "objects differ"
      | Error e, Error r ->
        e = r || QCheck.Test.fail_reportf "errors differ:\n  %s\n  %s" e r
      | Ok _, Error r -> QCheck.Test.fail_reportf "reference refused: %s" r
      | Error e, Ok _ -> QCheck.Test.fail_reportf "refused: %s" e)

(* ------------------------------------------------------------------ *)
(* Indirect parity: Analysis.Indirect's worklist against Ref_indirect,
   the three-pass fixpoint it replaced. *)

let indirect_counters () =
  List.map
    (fun c ->
      Option.value ~default:0
        (Obs.Metrics.find_counter Obs.Metrics.default ("analysis.indirect." ^ c)))
    [ "sites"; "resolved"; "unresolved"; "arcs" ]

(* The first part of the result, or of the counters each analysis
   adds, on which the two disagree. *)
let indirect_difference o =
  let run analyze =
    let before = indirect_counters () in
    let (r : Analysis.Indirect.t) = analyze o in
    (r, List.map2 ( - ) (indirect_counters ()) before)
  in
  let w, wc = run Analysis.Indirect.analyze and r, rc = run Ref_indirect.analyze in
  List.find_map
    (fun (what, same) -> if same then None else Some what)
    [ ("i_sites", w.i_sites = r.i_sites);
      ("i_address_taken", w.i_address_taken = r.i_address_taken);
      ("i_arcs", w.i_arcs = r.i_arcs); ("analysis.indirect.* counters", wc = rc) ]

(* A random object with a valid symbol table, one per seed. A strict
   one passes Objfile.validate: its jumps stay inside their routine
   (often into its middle) and its call and funref targets are entries.
   The others also jump into the middle of other routines, call and
   take the address of non-entries and name globals and arrays out of
   range. Calli sites pass 0 to 3 arguments, and slots 5 to 9 are
   seldom loaded, so many arguments land in slots their callee never
   reads. One object in four starts with a routine that stores the
   address of each of its 64 to 80 routines into an array, so its
   value sets need more than one word. *)
let indirect_input seed =
  let rand = Random.State.make [| seed |] in
  let int lo hi = lo + Random.State.int rand (hi - lo + 1) in
  let coin k = Random.State.int rand k = 0 in
  let strict = Random.State.bool rand and wide = coin 4 in
  let n_funcs = if wide then int 64 80 else int 1 12 in
  let n_globals = int 1 3 and n_arrays = int 1 2 in
  let sizes =
    Array.init n_funcs (fun i -> if wide && i = 0 then 3 * n_funcs else int 1 24)
  in
  let addrs = Array.make n_funcs 0 and pos = ref 0 in
  Array.iteri
    (fun i size ->
      if coin 4 then pos := !pos + int 1 3;
      addrs.(i) <- !pos;
      pos := !pos + size)
    sizes;
  let text_len = !pos + int 0 2 in
  let entry () = addrs.(int 0 (n_funcs - 1)) in
  let anywhere () = int (-1) text_len in
  let id n = if strict then int 0 (n - 1) else int (-1) n in
  let body lo hi : Objcode.Instr.t =
    let slot () = if coin 10 then int 5 9 else int 0 4 in
    let jump () = if strict || coin 2 then int lo (hi - 1) else int 0 (text_len - 1) in
    let target () = if strict || coin 2 then entry () else anywhere () in
    match int 0 27 with
    | 0 -> Nop
    | 1 -> Const (int (-3) 3)
    | 2 | 3 -> Load (slot ())
    | 4 | 5 -> Store (slot ())
    | 6 -> Gload (id n_globals)
    | 7 -> Gstore (id n_globals)
    | 8 -> Aload (id n_arrays)
    | 9 -> Astore (id n_arrays)
    | 10 -> Alu (if coin 2 then Add else Lt)
    | 11 -> Unop (if coin 2 then Neg else Not)
    | 12 -> Jump (jump ())
    | 13 -> Jumpz (jump ())
    | 14 | 15 -> Call (target (), int 0 3)
    | 16 | 17 -> Calli (int 0 3)
    | 18 | 19 | 20 -> Funref (target ())
    | 21 -> Enter (int 0 6)
    | 22 -> Mcount
    | 23 -> Pcount (int 0 (n_funcs - 1))
    | 24 -> Ret
    | 25 -> Pop
    | 26 ->
      Syscall
        (match int 0 3 with
        | 0 -> Sys_print
        | 1 -> Sys_putc
        | 2 -> Sys_rand
        | _ -> Sys_cycles)
    | _ -> Halt
  in
  let text = Array.make text_len Objcode.Instr.Nop in
  (* a gap holds no jump, so a strict object stays valid *)
  let gap () : Objcode.Instr.t =
    match int 0 2 with
    | 0 -> Funref (entry ())
    | 1 -> Calli (int 0 3)
    | _ -> Call (entry (), 1)
  in
  let covered = Array.make text_len false in
  Array.iteri
    (fun i a ->
      for pc = a to a + sizes.(i) - 1 do
        covered.(pc) <- true;
        text.(pc) <-
          (if wide && i = 0 then
             match (pc - a) mod 3 with
             | 0 -> Const ((pc - a) / 3)
             | 1 -> Funref addrs.((pc - a) / 3)
             | _ -> Astore 0
           else body a (a + sizes.(i)))
      done)
    addrs;
  Array.iteri (fun pc c -> if not c then text.(pc) <- gap ()) covered;
  let o =
    {
      Objcode.Objfile.text;
      symbols =
        Array.mapi
          (fun i addr ->
            { Objcode.Objfile.name = Printf.sprintf "f%d" i; addr; size = sizes.(i);
              profiled = false })
          addrs;
      entry = entry ();
      globals = Array.init n_globals (Printf.sprintf "g%d");
      global_init = Array.make n_globals 0;
      arrays = Array.init n_arrays (fun i -> (Printf.sprintf "a%d" i, 4));
      lines = [||];
      source_name = "random";
    }
  in
  (strict, o)

let indirect_parity =
  QCheck.Test.make ~name:"indirect = reference, on random objects" ~count:600
    (QCheck.make
       ~print:(fun seed ->
         Printf.sprintf "seed %d:\n%s" seed
           (Objcode.Objfile.to_string (snd (indirect_input seed))))
       QCheck.Gen.(int_bound 1_000_000_000))
    (fun seed ->
      let strict, o = indirect_input seed in
      (match (strict, Objcode.Objfile.validate o) with
      | true, Error es ->
        QCheck.Test.fail_reportf "strict object refused: %s" (String.concat "; " es)
      | _ -> ());
      match indirect_difference o with
      | None -> true
      | Some what -> QCheck.Test.fail_reportf "%s differ" what)

(* The generator reaches what the worklist treats specially: every
   instruction kind, Calli arities 0 to 3, non-entry funrefs, and value
   sets wider than one word, in both strict and other objects. *)
let test_indirect_inputs_cover () =
  let kinds = Hashtbl.create 32 and widest = ref 0 and strict_seen = ref 0 in
  for seed = 1 to 200 do
    let strict, o = indirect_input seed in
    if strict then incr strict_seen;
    Array.iter
      (fun (ins : Objcode.Instr.t) ->
        let kind =
          match ins with
          | Calli k -> Printf.sprintf "calli %d" k
          | Funref t when Objcode.Objfile.func_id_of_addr o t = None -> "funref non-entry"
          | ins -> List.hd (String.split_on_char ' ' (Objcode.Instr.to_string ins))
        in
        Hashtbl.replace kinds kind ())
      o.Objcode.Objfile.text;
    widest :=
      max !widest (List.length (Ref_indirect.analyze o).Analysis.Indirect.i_address_taken)
  done;
  List.iter
    (fun k -> Alcotest.(check bool) k true (Hashtbl.mem kinds k))
    [ "nop"; "const"; "load"; "store"; "gload"; "gstore"; "aload"; "astore"; "add";
      "neg"; "jump"; "jumpz"; "call"; "calli 0"; "calli 1"; "calli 2"; "calli 3";
      "funref"; "funref non-entry"; "enter"; "mcount"; "pcount"; "ret"; "pop";
      "syscall"; "halt" ];
  Alcotest.(check bool) "more than 62 address-taken routines" true (!widest > 62);
  Alcotest.(check bool) "strict and other objects" true
    (!strict_seen > 0 && !strict_seen < 200)

(* Every fixture and stock workload in every build, and the Figure 4
   image. *)
let test_indirect_parity_fixed () =
  let fixture f =
    let path = "fixtures/" ^ f in
    (path, In_channel.with_open_bin path In_channel.input_all)
  in
  let sources =
    List.map fixture
      [ "smoke.mini"; "smoke_mismatched.mini"; "smoke_slow.mini"; "pgo_matrix.mini" ]
    @ List.map
        (fun (w : Workloads.Programs.t) -> (w.w_name, w.w_source))
        Workloads.Programs.all
  in
  let check name o =
    Option.iter (Alcotest.failf "%s: %s differ" name) (indirect_difference o)
  in
  List.iter
    (fun (name, src) ->
      List.iter
        (fun (build, options) -> check (name ^ "/" ^ build) (compile_build options src))
        builds)
    sources;
  check "figure4" Workloads.Figure4.objfile

(* ------------------------------------------------------------------ *)
(* PGO parity: Pgo, which lays blocks out on the Asm items, against
   Ref_pgo, which assembled the program to find them. *)

(* The program with one function's source lines taken out, as an AST
   built without locations has them: its code carries no line marker,
   so the line in force there is the last one of the function laid out
   before it, in the profiled build and in the optimized layout. *)
let strip_lines (p : Mini.Ast.program) name =
  let rec stmt (s : Mini.Ast.stmt) =
    let sdesc =
      match s.sdesc with
      | If (c, a, b) -> Mini.Ast.If (c, List.map stmt a, List.map stmt b)
      | While (c, b) -> While (c, List.map stmt b)
      | For (i, c, step, b) -> For (stmt i, c, stmt step, List.map stmt b)
      | d -> d
    in
    { Mini.Ast.sdesc; sloc = Mini.Ast.dummy_loc }
  in
  { p with
    funs =
      List.map
        (fun (f : Mini.Ast.fundef) ->
          if f.fname <> name then f
          else { f with body = List.map stmt f.body; floc = Mini.Ast.dummy_loc })
        p.funs }

(* A generated program or (one seed in five) a stock workload, in one
   seed of three with a function's source lines taken out, built plain
   or -pg and folded, with a random forced-inline subset of its
   functions, profiled on a clock of 1, 7 or 97 cycles per tick into
   buckets of 1 or 4 addresses. *)
let pgo_input seed =
  let rand = Random.State.make [| seed |] in
  let name, src =
    if seed mod 5 = 0 then
      let all = Workloads.Programs.all in
      let w = List.nth all (Random.State.int rand (List.length all)) in
      (w.w_name, w.w_source)
    else ("generated", program_gen rand)
  in
  let build, options = List.nth builds (3 * Random.State.int rand 2) in
  let p = Mini.Parser.parse_program src in
  let funs = List.map (fun (f : Mini.Ast.fundef) -> f.fname) p.funs in
  let stripped =
    if Random.State.int rand 3 > 0 then None
    else Some (List.nth funs (Random.State.int rand (List.length funs)))
  in
  let p = Option.fold ~none:p ~some:(strip_lines p) stripped in
  let inline = List.filter (fun _ -> Random.State.int rand 4 = 0) funs in
  let cycles_per_tick = List.nth [ 1; 7; 97 ] (Random.State.int rand 3) in
  let hist_bucket_size = 1 + (3 * Random.State.int rand 2) in
  let m =
    Vm.Machine.create
      ~config:
        { Vm.Machine.default_config with
          cycles_per_tick; hist_bucket_size; max_cycles = Some 200_000 }
      (match Compile.Codegen.compile_program ~options p with
      | Ok o -> o
      | Error e -> QCheck.Test.fail_reportf "compile: %s" e)
  in
  ignore (Vm.Machine.run m);
  ( Printf.sprintf "%s %s%s, inline [%s], %d cycles a tick, buckets of %d" name
      build
      (Option.fold ~none:"" ~some:(Printf.sprintf ", no lines in %s") stripped)
      (String.concat " " inline) cycles_per_tick hist_bucket_size,
    p,
    { options with Compile.Codegen.inline },
    Vm.Machine.profile m )

let pgo_parity =
  QCheck.Test.make ~name:"pgo = reference, on generated programs and workloads"
    ~count:500
    (QCheck.make
       ~print:(fun seed ->
         let what, _, _, _ = pgo_input seed in
         Printf.sprintf "seed %d: %s" seed what)
       QCheck.Gen.(int_bound 1_000_000_000))
    (fun seed ->
      let _, p, options, gmon = pgo_input seed in
      match (Pgo.optimize ~options p gmon, Ref_pgo.optimize ~options p gmon) with
      | Ok (o, r), Ok (ro, rr) ->
        (Pgo.report_listing r = Pgo.report_listing rr
        || QCheck.Test.fail_reportf "decision logs differ:\n%s\nthe reference:\n%s"
             (Pgo.report_listing r) (Pgo.report_listing rr))
        && (Objcode.Objfile.to_string o = Objcode.Objfile.to_string ro
           || QCheck.Test.fail_report "objects differ")
      | Error e, Error r ->
        e = r || QCheck.Test.fail_reportf "errors differ:\n  %s\n  %s" e r
      | Ok _, Error r -> QCheck.Test.fail_reportf "the reference refused: %s" r
      | Error e, Ok _ -> QCheck.Test.fail_reportf "refused: %s" e)

(* ------------------------------------------------------------------ *)
(* Corrupted executables into the VM *)

let corrupt_instr_gen =
  QCheck.Gen.(
    let* which = int_range 0 10_000 in
    let* op = int_range 0 14 in
    let* operand =
      oneof
        [
          int_range (-5) 2000;
          oneofl
            [ min_int; -100_000_000_000_000; -65_536; 65_535; 65_536;
              100_000_000_000_000; max_int ];
        ]
    in
    return (which, op, operand))

(* A corrupted image is either refused at load, with a message that
   locates the offending instruction, or runs exactly as the reference
   interpreter runs it. *)
let vm_survives_corrupt_code =
  QCheck.Test.make ~name:"VM: corrupted object code faults cleanly" ~count:400
    (QCheck.make
       ~print:(fun (a, b, c) -> Printf.sprintf "(%d,%d,%d)" a b c)
       corrupt_instr_gen)
    (fun (which, op, operand) ->
      let o =
        compile_build Compile.Codegen.profiling_options Workloads.Programs.quick.w_source
      in
      let text = Array.copy o.Objcode.Objfile.text in
      let pos = which mod Array.length text in
      let evil : Objcode.Instr.t =
        match op with
        | 0 -> Jump operand
        | 1 -> Jumpz operand
        | 2 -> Call (operand, 1)
        | 3 -> Calli (operand mod 4)
        | 4 -> Load operand
        | 5 -> Store operand
        | 6 -> Aload operand
        | 7 -> Gload operand
        | 8 -> Ret
        | 9 -> Enter operand
        | 10 -> Calli operand
        | 11 -> Funref operand
        | 12 -> Halt
        | 13 -> Const operand
        | _ -> Pop
      in
      text.(pos) <- evil;
      let o = { o with Objcode.Objfile.text } in
      let config =
        { Vm.Machine.default_config with
          max_cycles = Some 3_000_000; max_depth = 200; oracle = true }
      in
      match Vm.Machine.create ~config o with
      | exception Invalid_argument msg ->
        let located =
          List.exists
            (fun pc -> contains ~needle:(Objcode.Objfile.location o pc) msg)
            (List.init (Array.length text) Fun.id)
        in
        if not located then QCheck.Test.fail_reportf "refusal names no pc: %s" msg;
        true
      | _ -> check_parity Run config o)

(* Arc records pointing anywhere must not break the analyzer. *)
let analyzer_survives_junk_arcs =
  QCheck.Test.make ~name:"analyzer: arbitrary arc records never crash" ~count:300
    QCheck.(
      list_of_size Gen.(int_range 0 30)
        (triple (int_range (-10) 100) (int_range (-10) 100) (int_range 0 50)))
    (fun raw ->
      let o = Workloads.Figure4.objfile in
      let n = Array.length o.Objcode.Objfile.text in
      let hist = Gmon.make_hist ~lowpc:0 ~highpc:n ~bucket_size:1 in
      let arcs =
        List.sort_uniq
          (fun (a : Gmon.arc) b -> compare (a.a_from, a.a_self) (b.a_from, b.a_self))
          (List.map (fun (f, s, c) -> { Gmon.a_from = f; a_self = s; a_count = c }) raw)
      in
      let g =
        { Gmon.hist; arcs; ticks_per_second = 60; cycles_per_tick = 16_666;
          runs = 1 }
      in
      match Gprof_core.Report.analyze o g with Ok _ | Error _ -> true)

let () =
  (* Pin the generator seed: this suite drives whole-program execution,
     so runtime and outcomes must not wander run to run. *)
  if Sys.getenv_opt "QCHECK_SEED" = None then Unix.putenv "QCHECK_SEED" "20260705";
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "fuzz"
    [
      ( "text inputs",
        [ qt parser_never_crashes; qt lexer_never_crashes ] );
      ( "binary inputs",
        [ qt gmon_reader_total; qt gmon_reader_bitflips; qt salvage_reader_total;
          qt salvage_truncation_is_subset; qt salvage_mutations_never_raise;
          qt icount_reader_total; qt objfile_reader_total ] );
      ( "generated programs",
        [ qt pipeline_on_random_programs; qt transformed_random_programs_agree ] );
      ( "corrupted state",
        [ qt vm_survives_corrupt_code; qt analyzer_survives_junk_arcs ] );
      ( "parity",
        [ qt parity_on_random_programs;
          Alcotest.test_case "stock workloads, every build" `Slow
            test_parity_on_workloads;
          qt frontend_parity;
          Alcotest.test_case "front end: hand-written cases" `Quick
            test_frontend_hand_cases;
          qt asm_parity; qt indirect_parity;
          Alcotest.test_case "indirect: random objects cover every kind" `Quick
            test_indirect_inputs_cover;
          Alcotest.test_case "indirect = reference, on fixtures and workloads" `Quick
            test_indirect_parity_fixed;
          qt pgo_parity ] );
    ]
