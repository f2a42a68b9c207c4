(* Tests for the VM: the mcount monitor, the profil histogram, the
   oracle, the stack sampler, and the machine itself (execution,
   faults, clock ticks, runtime profiling control). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Monitor *)

let test_monitor_basic () =
  let m = Vm.Monitor.create ~text_size:100 ~keying:Vm.Monitor.Site_primary in
  ignore (Vm.Monitor.record m ~frompc:10 ~selfpc:50);
  ignore (Vm.Monitor.record m ~frompc:10 ~selfpc:50);
  ignore (Vm.Monitor.record m ~frompc:20 ~selfpc:50);
  Alcotest.(check (list (triple int int int)))
    "arcs"
    [ (10, 50, 2); (20, 50, 1) ]
    (List.map (fun (a : Gmon.arc) -> (a.a_from, a.a_self, a.a_count))
       (Vm.Monitor.arcs m));
  check_int "records" 3 (Vm.Monitor.total_records m);
  check_int "distinct" 2 (Vm.Monitor.distinct_arcs m)

let test_monitor_multi_callee_site () =
  (* A call site with several destinations (a functional variable)
     chains within one froms slot. *)
  let m = Vm.Monitor.create ~text_size:100 ~keying:Vm.Monitor.Site_primary in
  ignore (Vm.Monitor.record m ~frompc:10 ~selfpc:50);
  ignore (Vm.Monitor.record m ~frompc:10 ~selfpc:60);
  ignore (Vm.Monitor.record m ~frompc:10 ~selfpc:70);
  ignore (Vm.Monitor.record m ~frompc:10 ~selfpc:50);
  check_int "three arcs" 3 (Vm.Monitor.distinct_arcs m);
  let counts =
    List.map (fun (a : Gmon.arc) -> (a.a_self, a.a_count)) (Vm.Monitor.arcs m)
  in
  Alcotest.(check (list (pair int int))) "chained counts"
    [ (50, 2); (60, 1); (70, 1) ] counts

let test_monitor_spontaneous () =
  let m = Vm.Monitor.create ~text_size:100 ~keying:Vm.Monitor.Site_primary in
  ignore (Vm.Monitor.record m ~frompc:(-2) ~selfpc:50);
  ignore (Vm.Monitor.record m ~frompc:100 ~selfpc:50);
  ignore (Vm.Monitor.record m ~frompc:(-2) ~selfpc:60);
  (match Vm.Monitor.arcs m with
  | [ a; b ] ->
    check_int "spontaneous from" Vm.Monitor.spontaneous_from a.Gmon.a_from;
    check_int "merged count" 2 a.Gmon.a_count;
    check_int "second callee" 60 b.Gmon.a_self
  | arcs -> Alcotest.failf "expected 2 arcs, got %d" (List.length arcs));
  Alcotest.check_raises "selfpc outside text"
    (Invalid_argument "Monitor.record: selfpc outside text segment") (fun () ->
      ignore (Vm.Monitor.record m ~frompc:10 ~selfpc:100))

let test_monitor_keying_equivalence () =
  (* Both keyings must produce identical condensed arc tables. *)
  let mk keying = Vm.Monitor.create ~text_size:200 ~keying in
  let a = mk Vm.Monitor.Site_primary and b = mk Vm.Monitor.Callee_primary in
  let prng = Util.Prng.create 7 in
  for _ = 1 to 2000 do
    let frompc = Util.Prng.int prng 220 - 10 in
    let selfpc = Util.Prng.int prng 200 in
    ignore (Vm.Monitor.record a ~frompc ~selfpc);
    ignore (Vm.Monitor.record b ~frompc ~selfpc)
  done;
  check_bool "same arcs" true (Vm.Monitor.arcs a = Vm.Monitor.arcs b)

let test_monitor_keying_probes () =
  (* Many callers of one callee: callee-primary must probe longer
     chains — the paper's reason for keying by call site. *)
  let site = Vm.Monitor.create ~text_size:1000 ~keying:Vm.Monitor.Site_primary in
  let callee = Vm.Monitor.create ~text_size:1000 ~keying:Vm.Monitor.Callee_primary in
  for round = 1 to 50 do
    for caller = 0 to 99 do
      ignore round;
      ignore (Vm.Monitor.record site ~frompc:caller ~selfpc:500);
      ignore (Vm.Monitor.record callee ~frompc:caller ~selfpc:500)
    done
  done;
  check_bool "callee-primary probes more" true
    (Vm.Monitor.total_probes callee > Vm.Monitor.total_probes site)

let test_monitor_reset () =
  let m = Vm.Monitor.create ~text_size:100 ~keying:Vm.Monitor.Site_primary in
  ignore (Vm.Monitor.record m ~frompc:10 ~selfpc:50);
  ignore (Vm.Monitor.record m ~frompc:(-1) ~selfpc:50);
  Vm.Monitor.reset m;
  check_int "no arcs" 0 (Vm.Monitor.distinct_arcs m);
  check_int "no records" 0 (Vm.Monitor.total_records m);
  check_int "no probes" 0 (Vm.Monitor.total_probes m);
  check_int "no max probe" 0 (Vm.Monitor.max_probe m);
  check_int "empty probe histogram" 0
    (Array.fold_left ( + ) 0 (Vm.Monitor.probe_depth_hist m));
  check_int "no chains" 0 (Vm.Monitor.chain_stats m).Vm.Monitor.n_chains;
  ignore (Vm.Monitor.record m ~frompc:10 ~selfpc:50);
  check_int "usable after reset" 1 (Vm.Monitor.distinct_arcs m)

let test_monitor_probe_depth () =
  (* Hand-computed chain walks: new cells are pushed at the head, so
     a repeated callee sinks one position per later-arriving callee. *)
  let m = Vm.Monitor.create ~text_size:100 ~keying:Vm.Monitor.Site_primary in
  let probes = ref [] in
  let rec_ frompc selfpc =
    let cost = Vm.Monitor.record m ~frompc ~selfpc in
    probes := ((cost - Vm.Monitor.base_cost) / Vm.Monitor.probe_cost) :: !probes
  in
  rec_ 10 50; (* empty chain: 0 probes *)
  rec_ 10 50; (* head hit: 1 *)
  rec_ 10 60; (* miss past [50]: 1, then 60 pushed at head *)
  rec_ 10 50; (* 60 then 50: 2 *)
  rec_ 10 70; (* miss past [60;50]: 2, then 70 pushed at head *)
  rec_ 10 50; (* 70, 60, 50: 3 *)
  Alcotest.(check (list int)) "per-record probes from returned cost"
    [ 0; 1; 1; 2; 2; 3 ] (List.rev !probes);
  check_int "total probes" 9 (Vm.Monitor.total_probes m);
  check_int "max probe" 3 (Vm.Monitor.max_probe m);
  let hist = Vm.Monitor.probe_depth_hist m in
  check_int "bucket 0 (empty chain)" 1 hist.(0);
  check_int "bucket [1,2)" 2 hist.(1);
  check_int "bucket [2,4)" 3 hist.(2);
  check_int "histogram covers every record" (Vm.Monitor.total_records m)
    (Array.fold_left ( + ) 0 hist);
  let cs = Vm.Monitor.chain_stats m in
  check_int "one live chain" 1 cs.Vm.Monitor.n_chains;
  check_int "three cells" 3 cs.Vm.Monitor.n_cells;
  check_int "longest chain" 3 cs.Vm.Monitor.max_chain

let test_monitor_spontaneous_callee_primary () =
  (* Regression: out-of-text callers must normalize to the one
     spontaneous pseudo-site under BOTH keyings, so a negative
     sentinel and a past-the-end address cannot smear into distinct
     arcs. *)
  let run keying =
    let m = Vm.Monitor.create ~text_size:100 ~keying in
    ignore (Vm.Monitor.record m ~frompc:(-5) ~selfpc:50);
    ignore (Vm.Monitor.record m ~frompc:107 ~selfpc:50);
    ignore (Vm.Monitor.record m ~frompc:(-2) ~selfpc:60);
    Vm.Monitor.arcs m
  in
  let arcs = run Vm.Monitor.Callee_primary in
  (match arcs with
  | [ a; b ] ->
    check_int "one pseudo-site" Vm.Monitor.spontaneous_from a.Gmon.a_from;
    check_int "conflated count" 2 a.Gmon.a_count;
    check_int "other callee" 60 b.Gmon.a_self
  | l -> Alcotest.failf "expected 2 arcs, got %d" (List.length l));
  check_bool "keyings agree on anomalous callers" true
    (arcs = run Vm.Monitor.Site_primary)

let test_monitor_cost_grows_with_chain () =
  let m = Vm.Monitor.create ~text_size:100 ~keying:Vm.Monitor.Site_primary in
  let c1 = Vm.Monitor.record m ~frompc:10 ~selfpc:10 in
  ignore (Vm.Monitor.record m ~frompc:10 ~selfpc:20);
  ignore (Vm.Monitor.record m ~frompc:10 ~selfpc:30);
  (* Probing for the oldest entry now walks past the two newer ones. *)
  let c2 = Vm.Monitor.record m ~frompc:10 ~selfpc:10 in
  check_bool "longer chain costs more" true (c2 > c1)

(* ------------------------------------------------------------------ *)
(* Profil *)

let test_profil_sampling () =
  let p = Vm.Profil.create ~lowpc:0 ~highpc:10 ~bucket_size:1 in
  Vm.Profil.sample p ~pc:3;
  Vm.Profil.sample p ~pc:3;
  Vm.Profil.sample p ~pc:7;
  Vm.Profil.sample p ~pc:99 (* outside: dropped *);
  let h = Vm.Profil.hist p in
  check_int "bucket 3" 2 h.Gmon.h_counts.(3);
  check_int "bucket 7" 1 h.Gmon.h_counts.(7);
  check_int "ticks" 3 (Vm.Profil.ticks p)

let test_profil_granularity () =
  let p = Vm.Profil.create ~lowpc:0 ~highpc:10 ~bucket_size:4 in
  let h = Vm.Profil.hist p in
  check_int "bucket count" 3 (Array.length h.Gmon.h_counts);
  Vm.Profil.sample p ~pc:0;
  Vm.Profil.sample p ~pc:3;
  Vm.Profil.sample p ~pc:4;
  Vm.Profil.sample p ~pc:9;
  let h = Vm.Profil.hist p in
  check_int "bucket 0 covers 0-3" 2 h.Gmon.h_counts.(0);
  check_int "bucket 1 covers 4-7" 1 h.Gmon.h_counts.(1);
  check_int "bucket 2 covers 8-9" 1 h.Gmon.h_counts.(2)

let test_profil_enable_disable_reset () =
  let p = Vm.Profil.create ~lowpc:0 ~highpc:10 ~bucket_size:1 in
  Vm.Profil.disable p;
  Vm.Profil.sample p ~pc:1;
  check_int "disabled drops" 0 (Vm.Profil.ticks p);
  Vm.Profil.enable p;
  Vm.Profil.sample p ~pc:1;
  check_int "enabled records" 1 (Vm.Profil.ticks p);
  Vm.Profil.reset p;
  check_int "reset zeroes" 0 (Vm.Profil.ticks p);
  check_int "reset zeroes buckets" 0 (Vm.Profil.hist p).Gmon.h_counts.(1)

(* ------------------------------------------------------------------ *)
(* Oracle *)

let test_oracle_simple () =
  let o = Vm.Oracle.create () in
  (* main [0..100]; calls child at 10, child returns at 30. *)
  Vm.Oracle.on_call o ~site:(-1) ~callee:0 ~now:0;
  Vm.Oracle.on_call o ~site:5 ~callee:50 ~now:10;
  Vm.Oracle.on_return o ~now:30;
  Vm.Oracle.on_return o ~now:100;
  check_int "child self" 20 (Vm.Oracle.self_cycles o 50);
  check_int "child total" 20 (Vm.Oracle.total_cycles o 50);
  check_int "main self" 80 (Vm.Oracle.self_cycles o 0);
  check_int "main total" 100 (Vm.Oracle.total_cycles o 0);
  check_int "grand total" 100 (Vm.Oracle.grand_total o)

let test_oracle_recursion () =
  let o = Vm.Oracle.create () in
  (* f calls itself: outer [0..100], inner [20..60]. *)
  Vm.Oracle.on_call o ~site:(-1) ~callee:0 ~now:0;
  Vm.Oracle.on_call o ~site:3 ~callee:0 ~now:20;
  Vm.Oracle.on_return o ~now:60;
  Vm.Oracle.on_return o ~now:100;
  check_int "self counts both activations" 100 (Vm.Oracle.self_cycles o 0);
  check_int "total counts outermost only" 100 (Vm.Oracle.total_cycles o 0);
  let stats = Vm.Oracle.fun_stats o in
  (match stats with
  | [ (0, s) ] -> check_int "two calls" 2 s.Vm.Oracle.f_calls
  | _ -> Alcotest.fail "one function expected")

let test_oracle_arcs () =
  let o = Vm.Oracle.create () in
  Vm.Oracle.on_call o ~site:(-1) ~callee:0 ~now:0;
  Vm.Oracle.on_call o ~site:7 ~callee:50 ~now:10;
  Vm.Oracle.on_return o ~now:40;
  Vm.Oracle.on_call o ~site:9 ~callee:50 ~now:50;
  Vm.Oracle.on_return o ~now:60;
  Vm.Oracle.on_return o ~now:100;
  match Vm.Oracle.arc_stats o with
  | [ ((-1, 0), root); ((7, 50), a); ((9, 50), b) ] ->
    check_int "root calls" 1 root.Vm.Oracle.ar_calls;
    check_int "arc a time" 30 a.Vm.Oracle.ar_total_cycles;
    check_int "arc b time" 10 b.Vm.Oracle.ar_total_cycles
  | arcs -> Alcotest.failf "unexpected arcs (%d)" (List.length arcs)

let test_oracle_finish_unwinds () =
  let o = Vm.Oracle.create () in
  Vm.Oracle.on_call o ~site:(-1) ~callee:0 ~now:0;
  Vm.Oracle.on_call o ~site:1 ~callee:50 ~now:10;
  Vm.Oracle.finish o ~now:30;
  check_int "depth zero" 0 (Vm.Oracle.depth o);
  check_int "child attributed" 20 (Vm.Oracle.self_cycles o 50);
  check_int "root attributed" 10 (Vm.Oracle.self_cycles o 0);
  Alcotest.check_raises "return on empty"
    (Invalid_argument "Oracle.on_return: no outstanding call") (fun () ->
      Vm.Oracle.on_return o ~now:99)

(* ------------------------------------------------------------------ *)
(* Stacksamp *)

let test_stacksamp_interval () =
  let s = Vm.Stacksamp.create ~interval:3 () in
  for tick = 1 to 10 do
    ignore (Vm.Stacksamp.on_tick s ~stack:[| tick |])
  done;
  check_int "every third tick" 3 (Vm.Stacksamp.n_samples s);
  Alcotest.(check (list (pair (array int) int)))
    "kept ticks 3,6,9 with count 1 each"
    [ ([| 3 |], 1); ([| 6 |], 1); ([| 9 |], 1) ]
    (Vm.Stacksamp.folded s)

let test_stacksamp_interning () =
  (* interval 1: every tick sampled; repeats intern to one slot *)
  let s = Vm.Stacksamp.create ~interval:1 () in
  for _ = 1 to 5 do
    ignore (Vm.Stacksamp.on_tick s ~stack:[| 0; 4 |])
  done;
  ignore (Vm.Stacksamp.on_tick s ~stack:[| 0; 8 |]);
  check_int "six samples" 6 (Vm.Stacksamp.n_samples s);
  check_int "two distinct stacks" 2 (Vm.Stacksamp.n_distinct s);
  Alcotest.(check (list (pair (array int) int)))
    "folded in canonical order with counts"
    [ ([| 0; 4 |], 5); ([| 0; 8 |], 1) ]
    (Vm.Stacksamp.folded s);
  check_int "max depth tracked" 2 (Vm.Stacksamp.max_depth s)

let test_stacksamp_empty_and_deep () =
  let s = Vm.Stacksamp.create ~interval:1 () in
  (* an empty stack at the tick (nothing live) still counts as a sample *)
  ignore (Vm.Stacksamp.on_tick s ~stack:[||]);
  check_int "empty stack sampled" 1 (Vm.Stacksamp.n_samples s);
  (* deep recursion: one very deep stack interns fine *)
  let deep = Array.init 10_000 (fun i -> i land 7) in
  let c = Vm.Stacksamp.on_tick s ~stack:deep in
  check_int "walk cost proportional to depth" (2 * 10_000) c;
  check_int "deep stack interned" 2 (Vm.Stacksamp.n_distinct s);
  check_int "max depth is the deep stack's" 10_000 (Vm.Stacksamp.max_depth s)

let test_stacksamp_capacity () =
  let s = Vm.Stacksamp.create ~capacity:2 ~interval:1 () in
  ignore (Vm.Stacksamp.on_tick s ~stack:[| 1 |]);
  ignore (Vm.Stacksamp.on_tick s ~stack:[| 2 |]);
  (* table full: a new stack is dropped and counted as skipped... *)
  let c = Vm.Stacksamp.on_tick s ~stack:[| 3 |] in
  check_bool "walk cost still charged when skipped" true (c > 0);
  (* ...but a known stack still counts *)
  ignore (Vm.Stacksamp.on_tick s ~stack:[| 1 |]);
  check_int "taken" 3 (Vm.Stacksamp.n_samples s);
  check_int "skipped" 1 (Vm.Stacksamp.n_skipped s);
  check_int "distinct capped" 2 (Vm.Stacksamp.n_distinct s);
  Alcotest.(check (list (pair (array int) int)))
    "known stacks keep counting at capacity"
    [ ([| 1 |], 2); ([| 2 |], 1) ]
    (Vm.Stacksamp.folded s)

let test_stacksamp_cost_and_reset () =
  let s = Vm.Stacksamp.create ~interval:1 () in
  let c = Vm.Stacksamp.on_tick s ~stack:[| 1; 2; 3 |] in
  check_bool "cost proportional to depth" true (c > 0);
  let c2 = Vm.Stacksamp.on_tick s ~stack:(Array.make 10 0) in
  check_bool "deeper costs more" true (c2 > c);
  Vm.Stacksamp.reset s;
  check_int "reset" 0 (Vm.Stacksamp.n_samples s);
  check_int "reset distinct" 0 (Vm.Stacksamp.n_distinct s);
  Alcotest.check_raises "bad interval"
    (Invalid_argument "Stacksamp.create: interval must be >= 1") (fun () ->
      ignore (Vm.Stacksamp.create ~interval:0 ()))

(* ------------------------------------------------------------------ *)
(* Machine: faults via handcrafted object code *)

let asm_fun name items = { Objcode.Asm.name; items; profiled = false }

let assemble ?(globals = []) ?(arrays = []) funs =
  match
    Objcode.Asm.assemble
      {
        Objcode.Asm.a_globals = globals;
        a_arrays = arrays;
        a_funs = funs;
        a_entry = "main";
        a_source = "test";
      }
  with
  | Ok o -> o
  | Error e -> Alcotest.failf "assemble: %s" e

let expect_fault o fragment =
  let m = Vm.Machine.create o in
  match Vm.Machine.run m with
  | Vm.Machine.Faulted f ->
    check_bool
      (Printf.sprintf "fault %S mentions %S" f.reason fragment)
      true
      (let n = String.length fragment and h = String.length f.reason in
       let rec go i =
         i + n <= h && (String.sub f.reason i n = fragment || go (i + 1))
       in
       go 0)
  | _ -> Alcotest.fail "expected a fault"

(* Code the load-time verifier refuses never runs: Machine.create
   raises with a message naming the function, offset, and pc. *)
let expect_refused o expected =
  match Vm.Machine.create o with
  | _ -> Alcotest.fail "expected the verifier to refuse the image"
  | exception Invalid_argument msg ->
    Alcotest.(check string) "refusal message" ("Machine.create: " ^ expected) msg

let test_fault_stack_underflow () =
  expect_refused
    (assemble [ asm_fun "main" [ Objcode.Asm.Ins Objcode.Asm.APop ] ])
    "main+0 (pc 0): operand stack underflow"

let test_fault_division_by_zero () =
  expect_fault
    (assemble
       [
         asm_fun "main"
           [ Objcode.Asm.Ins (Objcode.Asm.AConst 1);
             Objcode.Asm.Ins (Objcode.Asm.AConst 0);
             Objcode.Asm.Ins (Objcode.Asm.AAlu Objcode.Instr.Div);
             Objcode.Asm.Ins Objcode.Asm.ARet ] ])
    "division by zero"

let test_fault_array_bounds () =
  expect_fault
    (assemble ~arrays:[ ("t", 4) ]
       [
         asm_fun "main"
           [ Objcode.Asm.Ins (Objcode.Asm.AConst 9);
             Objcode.Asm.Ins (Objcode.Asm.AAload "t");
             Objcode.Asm.Ins Objcode.Asm.ARet ] ])
    "out of bounds"

let test_fault_bad_indirect_target () =
  expect_fault
    (assemble
       [
         asm_fun "main"
           [ Objcode.Asm.Ins (Objcode.Asm.AConst 1);
             (* address 1 is inside main, not a function entry *)
             Objcode.Asm.Ins (Objcode.Asm.ACalli 0);
             Objcode.Asm.Ins Objcode.Asm.ARet ] ])
    "not a function entry"

let test_fault_local_out_of_range () =
  expect_refused
    (assemble
       [ asm_fun "main"
           [ Objcode.Asm.Ins (Objcode.Asm.ALoad 3);
             Objcode.Asm.Ins Objcode.Asm.ARet ] ])
    "main+0 (pc 0): local slot 3 out of range (0 locals)"

(* A frame entered through calli with fewer arguments than its body
   reads keeps the run-time slot check; the same body entered with
   enough arguments runs clean. *)
let test_fault_calli_local_slot () =
  let prog nargs =
    assemble
      [
        asm_fun "main"
          (List.init nargs (fun _ -> Objcode.Asm.Ins (Objcode.Asm.AConst 5))
          @ [ Objcode.Asm.Ins (Objcode.Asm.AFunref "second");
              Objcode.Asm.Ins (Objcode.Asm.ACalli nargs);
              Objcode.Asm.Ins Objcode.Asm.ARet ]);
        asm_fun "second"
          [ Objcode.Asm.Ins (Objcode.Asm.ALoad 1); Objcode.Asm.Ins Objcode.Asm.ARet ];
      ]
  in
  expect_fault (prog 1) "local slot 1 out of range";
  let m = Vm.Machine.create (prog 2) in
  check_bool "two arguments suffice" true (Vm.Machine.run m = Vm.Machine.Halted);
  Alcotest.(check (option int)) "returns its second argument" (Some 5)
    (Vm.Machine.result m);
  (* too many arguments never fault: the extra one lands in the
     callee's first local, which [Enter] then leaves unzeroed *)
  match
    Compile.Codegen.compile_source
      "fun one(a) { var t; return t; } \
       fun main() { var h = one; return h(1, 2); }"
  with
  | Error e -> Alcotest.fail e
  | Ok o ->
    let m = Vm.Machine.create o in
    check_bool "an over-arity call runs" true (Vm.Machine.run m = Vm.Machine.Halted);
    Alcotest.(check (option int)) "the local holds the extra argument" (Some 2)
      (Vm.Machine.result m)

let test_fault_depth_limit () =
  let o =
    assemble
      [ asm_fun "main"
          [ Objcode.Asm.Ins (Objcode.Asm.ACall ("main", 0));
            Objcode.Asm.Ins Objcode.Asm.ARet ] ]
  in
  let m =
    Vm.Machine.create ~config:{ Vm.Machine.default_config with max_depth = 100 } o
  in
  match Vm.Machine.run m with
  | Vm.Machine.Faulted f ->
    check_bool "depth fault" true
      (String.length f.reason >= 5 && String.sub f.reason 0 5 = "call ")
  | _ -> Alcotest.fail "expected depth fault"

let test_fault_cycle_limit () =
  let o =
    assemble
      [ asm_fun "main"
          [ Objcode.Asm.Label "l"; Objcode.Asm.Ins (Objcode.Asm.AJump "l") ] ]
  in
  let m =
    Vm.Machine.create
      ~config:{ Vm.Machine.default_config with max_cycles = Some 10_000 }
      o
  in
  (match Vm.Machine.run m with
  | Vm.Machine.Faulted f ->
    check_bool "cycle limit" true (f.reason = "cycle limit exceeded")
  | _ -> Alcotest.fail "expected cycle-limit fault");
  (* A fault is sticky. *)
  check_bool "still faulted" true
    (match Vm.Machine.step m with Vm.Machine.Faulted _ -> true | _ -> false);
  (* The limit's edge on a halting program: a limit of exactly its
     cycles lets it halt; one cycle less faults at main's final ret,
     the instruction that would end past the limit. *)
  let o =
    assemble
      [ asm_fun "main"
          [ Objcode.Asm.Ins (Objcode.Asm.AConst 2);
            Objcode.Asm.Ins (Objcode.Asm.AConst 3);
            Objcode.Asm.Ins (Objcode.Asm.AAlu Objcode.Instr.Mul);
            Objcode.Asm.Ins Objcode.Asm.ARet ] ]
  in
  let total =
    let m = Vm.Machine.create o in
    check_bool "halts without a limit" true (Vm.Machine.run m = Vm.Machine.Halted);
    Vm.Machine.cycles m
  in
  let limited n =
    Vm.Machine.create ~config:{ Vm.Machine.default_config with max_cycles = Some n } o
  in
  let m = limited total in
  check_bool "halts at a limit of its total" true (Vm.Machine.run m = Vm.Machine.Halted);
  check_int "all cycles ran" total (Vm.Machine.cycles m);
  match Vm.Machine.run (limited (total - 1)) with
  | Vm.Machine.Faulted f ->
    Alcotest.(check string) "one cycle less" "cycle limit exceeded" f.reason;
    check_bool "at main's final ret" true (o.Objcode.Objfile.text.(f.fault_pc) = Objcode.Instr.Ret)
  | _ -> Alcotest.fail "expected a cycle-limit fault one cycle short"

(* ------------------------------------------------------------------ *)
(* Machine: clock, control interface, profile extraction *)

let compile_src src =
  match
    Compile.Codegen.compile_source ~options:Compile.Codegen.profiling_options src
  with
  | Ok o -> o
  | Error e -> Alcotest.failf "compile: %s" e

let looping_src =
  {|
fun spin(n) {
  var i;
  var s = 0;
  for (i = 0; i < n; i = i + 1) { s = s + i; }
  return s;
}
fun main() {
  var r;
  var s = 0;
  for (r = 0; r < 3000; r = r + 1) { s = s + spin(200); }
  return s % 1000;
}
|}

let test_ticks_match_cycles () =
  let o = compile_src looping_src in
  let m = Vm.Machine.create o in
  ignore (Vm.Machine.run m);
  let expected = Vm.Machine.cycles m / Vm.Machine.default_config.cycles_per_tick in
  check_bool "tick count tracks cycles" true
    (abs (Vm.Machine.ticks m - expected) <= 1);
  let g = Vm.Machine.profile m in
  check_int "histogram holds every tick" (Vm.Machine.ticks m) (Gmon.total_ticks g)

let test_profile_extraction_valid () =
  let o = compile_src looping_src in
  let m = Vm.Machine.create o in
  ignore (Vm.Machine.run m);
  let g = Vm.Machine.profile m in
  (match Gmon.validate g with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es));
  (* Arc counts: spin called 300 times from one site, main spontaneously. *)
  let spin = Option.get (Objcode.Objfile.symbol_by_name o "spin") in
  check_int "spin arc count" 3000 (Gmon.arc_count_into g spin.addr)

let test_control_interface () =
  let o = compile_src looping_src in
  let m = Vm.Machine.create o in
  Vm.Machine.profiling_off m;
  ignore (Vm.Machine.run_cycles m 500_000);
  check_int "nothing while off" 0 (Gmon.total_ticks (Vm.Machine.profile m));
  check_int "no arcs while off" 0 (List.length (Vm.Machine.profile m).Gmon.arcs);
  Vm.Machine.profiling_on m;
  ignore (Vm.Machine.run_cycles m 1_000_000);
  let mid = Vm.Machine.profile m in
  check_bool "ticks while on" true (Gmon.total_ticks mid > 0);
  check_bool "arcs while on" true (List.length mid.Gmon.arcs > 0);
  Vm.Machine.reset_profile m;
  check_int "reset clears" 0 (Gmon.total_ticks (Vm.Machine.profile m));
  let st = Vm.Machine.run m in
  check_bool "halts" true (st = Vm.Machine.Halted);
  check_bool "fresh window gathered" true
    (Gmon.total_ticks (Vm.Machine.profile m) > 0)

let test_run_cycles_budget () =
  let o = compile_src looping_src in
  let m = Vm.Machine.create o in
  let st = Vm.Machine.run_cycles m 50_000 in
  check_bool "still running" true (st = Vm.Machine.Running);
  check_bool "ran about the budget" true
    (Vm.Machine.cycles m >= 50_000 && Vm.Machine.cycles m < 80_000);
  (* a budget past max_int cycles from here is no stop point at all *)
  check_bool "max_int budget runs to the end" true
    (Vm.Machine.run_cycles m max_int = Vm.Machine.Halted)

(* The machine runs the text it verified: overwriting the caller's
   object after [create] changes nothing about the run. *)
let test_machine_owns_text () =
  let o = Result.get_ok (Workloads.Driver.compile Workloads.Programs.matrix) in
  let run m =
    check_bool "halts" true (Vm.Machine.run m = Vm.Machine.Halted);
    (Vm.Machine.output m, Vm.Machine.cycles m, Gmon.to_bytes (Vm.Machine.profile m))
  in
  let untouched = run (Vm.Machine.create o) in
  let m = Vm.Machine.create o in
  Array.fill o.text 0 (Array.length o.text) (Objcode.Instr.Load 100_000);
  let output, cycles, gmon = run m in
  let u_output, u_cycles, u_gmon = untouched in
  Alcotest.(check string) "output" u_output output;
  check_int "cycles" u_cycles cycles;
  check_bool "profile" true (String.equal u_gmon gmon)

(* A clock that cannot advance is refused before the run, like a
   non-positive epoch length. *)
let test_create_refuses_clock () =
  let o = compile_src looping_src in
  List.iter
    (fun (what, config) ->
      match Vm.Machine.create ~config o with
      | _ -> Alcotest.failf "accepted %s" what
      | exception Invalid_argument msg ->
        Alcotest.(check string) what ("Machine.create: " ^ what ^ " must be positive") msg)
    Vm.Machine.
      [ ("cycles_per_tick", { default_config with cycles_per_tick = 0 });
        ("cycles_per_tick", { default_config with cycles_per_tick = -5 });
        ("ticks_per_second", { default_config with ticks_per_second = 0 });
        ("epoch_ticks", { default_config with epoch_ticks = Some 0 }) ]

let test_pcounts () =
  let options =
    { Compile.Codegen.default_options with count = true; profile = false }
  in
  let o =
    match Compile.Codegen.compile_source ~options looping_src with
    | Ok o -> o
    | Error e -> Alcotest.failf "compile: %s" e
  in
  let m = Vm.Machine.create o in
  ignore (Vm.Machine.run m);
  let counts = Vm.Machine.pcounts m in
  let id name =
    Option.get
      (Objcode.Objfile.func_id_of_addr o
         (Option.get (Objcode.Objfile.symbol_by_name o name)).addr)
  in
  check_int "spin counted" 3000 counts.(id "spin");
  check_int "main counted" 1 counts.(id "main");
  check_int "no mcount arcs in count mode" 0
    (List.length (Vm.Machine.profile m).Gmon.arcs)

let test_mcount_overhead_charged () =
  let o_plain =
    match Compile.Codegen.compile_source looping_src with
    | Ok o -> o
    | Error e -> Alcotest.failf "compile: %s" e
  in
  let o_prof = compile_src looping_src in
  let run o =
    let m = Vm.Machine.create o in
    ignore (Vm.Machine.run m);
    m
  in
  let plain = run o_plain and prof = run o_prof in
  check_bool "profiled run is slower" true
    (Vm.Machine.cycles prof > Vm.Machine.cycles plain);
  check_int "difference equals monitor charges + mcount decodes"
    (Vm.Machine.cycles prof - Vm.Machine.cycles plain)
    (Vm.Machine.mcount_cycles prof + (3001 * Objcode.Instr.cost Objcode.Instr.Mcount))

let test_stack_samples_from_machine () =
  let o = compile_src looping_src in
  let m =
    Vm.Machine.create
      ~config:{ Vm.Machine.default_config with stack_interval = Some 1 }
      o
  in
  ignore (Vm.Machine.run m);
  let folded = Vm.Machine.stack_folded m in
  check_bool "collected" true (folded <> []);
  let main = (Option.get (Objcode.Objfile.symbol_by_name o "main")).addr in
  check_bool "every stack is rooted at main" true
    (List.for_all
       (fun (s, n) -> Array.length s > 0 && s.(0) = main && n > 0)
       folded);
  let sp = Option.get (Vm.Machine.sprof m) in
  check_int "sprof carries every sample"
    (Vm.Stacksamp.n_samples (Option.get (Vm.Machine.sampler m)))
    (Gmon.Sprof.n_samples sp);
  Alcotest.(check (result unit (list string))) "sprof validates" (Ok ())
    (Gmon.Sprof.validate sp)

(* A clock of one cycle per tick samples the stack on every tick, and
   every walk (2 cycles per frame) costs more than a tick: the ticks
   that fall due inside a walk are counted and sampled into the
   histogram but start no walk, so the run halts with one tick per
   cycle. *)
let test_stack_walks_dearer_than_a_tick () =
  let o =
    compile_src
      {|
fun leaf(x) { return x + 1; }
fun mid(x) { return leaf(x) * 2; }
fun main() {
  var i;
  var s = 0;
  for (i = 0; i < 50; i = i + 1) { s = s + mid(i); }
  print(s);
  return 0;
}
|}
  in
  let m =
    Vm.Machine.create
      ~config:
        { Vm.Machine.default_config with cycles_per_tick = 1; stack_interval = Some 1 }
      o
  in
  check_bool "halts" true (Vm.Machine.run m = Vm.Machine.Halted);
  check_int "ticks = cycles" (Vm.Machine.cycles m) (Vm.Machine.ticks m);
  check_int "histogram holds every tick" (Vm.Machine.ticks m)
    (Gmon.total_ticks (Vm.Machine.profile m));
  let walks = Vm.Stacksamp.n_samples (Option.get (Vm.Machine.sampler m)) in
  check_bool "some ticks walked the stack, not all" true
    (walks > 0 && walks < Vm.Machine.ticks m);
  let plain = Vm.Machine.create o in
  ignore (Vm.Machine.run plain);
  Alcotest.(check string) "same output as at the stock clock"
    (Vm.Machine.output plain) (Vm.Machine.output m)

let test_jitter_determinism_and_effect () =
  let o = compile_src looping_src in
  let run seed jitter =
    let m =
      Vm.Machine.create
        ~config:{ Vm.Machine.default_config with seed; tick_jitter = jitter }
        o
    in
    ignore (Vm.Machine.run m);
    Vm.Machine.profile m
  in
  check_bool "jitter is deterministic per seed" true
    (Gmon.equal (run 5 0.4) (run 5 0.4));
  check_bool "different seeds differ" true
    (not (Gmon.equal (run 5 0.4) (run 6 0.4)))

let test_oracle_matches_machine_totals () =
  let o = compile_src looping_src in
  let m =
    Vm.Machine.create ~config:{ Vm.Machine.default_config with oracle = true } o
  in
  ignore (Vm.Machine.run m);
  let orc = Option.get (Vm.Machine.the_oracle m) in
  check_int "oracle grand total = machine cycles" (Vm.Machine.cycles m)
    (Vm.Oracle.grand_total orc);
  let main = (Option.get (Objcode.Objfile.symbol_by_name o "main")).addr in
  check_int "main inclusive = everything" (Vm.Machine.cycles m)
    (Vm.Oracle.total_cycles orc main)

(* ------------------------------------------------------------------ *)
(* Kscript: the kgmon control language *)

let test_kscript_parse () =
  (match Vm.Kscript.parse "off; run 500000 ;on;dump w1 ; reset; run-to-end; dump w2" with
  | Ok cmds ->
    Alcotest.(check (list string)) "parsed"
      [ "off"; "run 500000"; "on"; "dump w1"; "reset"; "run-to-end"; "dump w2" ]
      (List.map Vm.Kscript.command_to_string cmds)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Vm.Kscript.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" bad)
    [ ""; ";"; "frobnicate"; "run"; "run x"; "run -5"; "dump"; "on off" ]

let test_kscript_execute () =
  let o = compile_src looping_src in
  let m = Vm.Machine.create o in
  let script = "off; run 500000; on; run 1000000; dump mid; reset; run-to-end; dump end" in
  let cmds = Result.get_ok (Vm.Kscript.parse script) in
  let outcome = Vm.Kscript.execute m cmds in
  check_bool "halted" true (outcome.status = Vm.Machine.Halted);
  (match outcome.dumps with
  | [ ("mid", mid); ("end", fin) ] ->
    check_bool "mid window has ticks" true (Gmon.total_ticks mid > 0);
    check_bool "end window has ticks" true (Gmon.total_ticks fin > 0);
    (* the reset means the windows are disjoint: together they cover
       roughly the profiled-on portion, not double it *)
    check_bool "windows disjoint" true
      (Gmon.total_ticks mid + Gmon.total_ticks fin
      <= (Vm.Machine.cycles m / Vm.Machine.default_config.cycles_per_tick) + 2)
  | dumps -> Alcotest.failf "expected 2 dumps, got %d" (List.length dumps))

let test_kscript_on_stopped_machine () =
  let o = compile_src looping_src in
  let m = Vm.Machine.create o in
  ignore (Vm.Machine.run m);
  let cmds = Result.get_ok (Vm.Kscript.parse "dump post; reset; run 1000; dump empty") in
  let outcome = Vm.Kscript.execute m cmds in
  (match outcome.dumps with
  | [ ("post", post); ("empty", empty) ] ->
    check_bool "post-mortem dump has data" true (Gmon.total_ticks post > 0);
    check_int "dump after reset is empty" 0 (Gmon.total_ticks empty)
  | _ -> Alcotest.fail "dumps");
  check_bool "still halted" true (outcome.status = Vm.Machine.Halted)

let () =
  Alcotest.run "vm"
    [
      ( "monitor",
        [
          Alcotest.test_case "basic arcs" `Quick test_monitor_basic;
          Alcotest.test_case "multi-callee site" `Quick test_monitor_multi_callee_site;
          Alcotest.test_case "spontaneous" `Quick test_monitor_spontaneous;
          Alcotest.test_case "keying equivalence" `Quick test_monitor_keying_equivalence;
          Alcotest.test_case "keying probe costs" `Quick test_monitor_keying_probes;
          Alcotest.test_case "reset" `Quick test_monitor_reset;
          Alcotest.test_case "probe depth accounting" `Quick
            test_monitor_probe_depth;
          Alcotest.test_case "spontaneous under callee keying" `Quick
            test_monitor_spontaneous_callee_primary;
          Alcotest.test_case "chain cost" `Quick test_monitor_cost_grows_with_chain;
        ] );
      ( "profil",
        [
          Alcotest.test_case "sampling" `Quick test_profil_sampling;
          Alcotest.test_case "granularity" `Quick test_profil_granularity;
          Alcotest.test_case "enable/disable/reset" `Quick
            test_profil_enable_disable_reset;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "simple" `Quick test_oracle_simple;
          Alcotest.test_case "recursion" `Quick test_oracle_recursion;
          Alcotest.test_case "arcs" `Quick test_oracle_arcs;
          Alcotest.test_case "finish" `Quick test_oracle_finish_unwinds;
        ] );
      ( "stacksamp",
        [
          Alcotest.test_case "interval" `Quick test_stacksamp_interval;
          Alcotest.test_case "interning" `Quick test_stacksamp_interning;
          Alcotest.test_case "empty/deep stacks" `Quick
            test_stacksamp_empty_and_deep;
          Alcotest.test_case "capacity" `Quick test_stacksamp_capacity;
          Alcotest.test_case "cost and reset" `Quick test_stacksamp_cost_and_reset;
        ] );
      ( "faults",
        [
          Alcotest.test_case "stack underflow" `Quick test_fault_stack_underflow;
          Alcotest.test_case "division by zero" `Quick test_fault_division_by_zero;
          Alcotest.test_case "array bounds" `Quick test_fault_array_bounds;
          Alcotest.test_case "bad indirect target" `Quick test_fault_bad_indirect_target;
          Alcotest.test_case "local out of range" `Quick test_fault_local_out_of_range;
          Alcotest.test_case "calli frame local slot" `Quick test_fault_calli_local_slot;
          Alcotest.test_case "depth limit" `Quick test_fault_depth_limit;
          Alcotest.test_case "cycle limit" `Quick test_fault_cycle_limit;
        ] );
      ( "machine",
        [
          Alcotest.test_case "ticks track cycles" `Quick test_ticks_match_cycles;
          Alcotest.test_case "profile extraction" `Quick test_profile_extraction_valid;
          Alcotest.test_case "control interface" `Quick test_control_interface;
          Alcotest.test_case "run_cycles budget" `Quick test_run_cycles_budget;
          Alcotest.test_case "owns its text" `Quick test_machine_owns_text;
          Alcotest.test_case "create refuses a stopped clock" `Quick
            test_create_refuses_clock;
          Alcotest.test_case "pcounts" `Quick test_pcounts;
          Alcotest.test_case "mcount overhead charged" `Quick
            test_mcount_overhead_charged;
          Alcotest.test_case "stack samples" `Quick test_stack_samples_from_machine;
          Alcotest.test_case "stack walks dearer than a tick" `Quick
            test_stack_walks_dearer_than_a_tick;
          Alcotest.test_case "jitter" `Quick test_jitter_determinism_and_effect;
          Alcotest.test_case "oracle totals" `Quick test_oracle_matches_machine_totals;
        ] );
      ( "kscript",
        [
          Alcotest.test_case "parse" `Quick test_kscript_parse;
          Alcotest.test_case "execute" `Quick test_kscript_execute;
          Alcotest.test_case "stopped machine" `Quick test_kscript_on_stopped_machine;
        ] );
    ]
