module Objfile = Objcode.Objfile
module Instr = Objcode.Instr

type severity = Error | Warning | Info

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "note"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

type finding = {
  f_rule : string;
  f_severity : severity;
  f_addr : int option;
  f_func : string option;
  f_msg : string;
}

type t = {
  l_findings : finding list;
  l_arcs_checked : int;
  l_buckets_checked : int;
}

let rules =
  [
    ("binary-invalid", Error, "the executable fails structural validation");
    ("hist-geometry", Error, "histogram bounds or a bucket outside the text segment");
    ("hist-gap-ticks", Warning, "a nonzero bucket covered by no routine");
    ("arc-from-non-call", Error, "an arc's call site holds no call instruction");
    ("arc-into-non-entry", Error, "an arc's callee is not a function entry");
    ("arc-into-unprofiled", Warning, "an arc lands on an uninstrumented routine");
    ("arc-infeasible", Error, "a dynamic arc the static call graph cannot admit");
    ("arc-spontaneous", Info, "an arc from outside the text segment (a root)");
    ("call-anomaly", Warning, "the binary has calls or funrefs to no function entry");
    ("dead-code-ticks", Warning, "a statically-unreachable function observed executing");
    ("profiled-unreachable", Info, "an instrumented function the entry cannot reach");
    ("dead-blocks", Info, "intra-procedurally unreachable basic blocks");
    ("dead-store", Warning, "a store to a local that no path ever reads");
    ("dead-param", Warning, "a parameter whose value no path ever reads");
    ("const-branch", Warning, "a branch whose condition is a compile-time constant");
    ("const-dead-block", Info, "a block only constant propagation proves unreachable");
    ("irreducible-loop", Warning, "a multi-entry loop defeats natural-loop analysis");
    ("calli-no-callee", Warning, "an indirect call whose callee is never a function");
    ("loop-call-unobserved", Warning,
     "a call inside a loop with no dynamic arc though its block was sampled");
    ("loop-no-ticks", Warning, "a loop never observed ticking inside a hot function");
    ("dead-block-ticks", Error,
     "ticks inside a statically-dead block: the profile cannot match the binary");
    ("pgo-symbol-missing", Error,
     "a baseline routine is absent from the optimized binary");
    ("pgo-entry-mismatch", Error,
     "the optimized binary starts in a different routine than the baseline");
    ("pgo-profiled-dropped", Warning,
     "a routine lost its monitoring prologue across the rebuild");
    ("pgo-inlined-away", Info,
     "a routine's direct calls were all inlined; its time now folds into callers");
  ]

let severity_of_rule rule =
  match List.find_opt (fun (r, _, _) -> r = rule) rules with
  | Some (_, s, _) -> s
  | None -> invalid_arg ("Proflint: unknown rule " ^ rule)

let finding ?addr ?func rule fmt =
  Format.kasprintf
    (fun msg ->
      { f_rule = rule; f_severity = severity_of_rule rule; f_addr = addr;
        f_func = func; f_msg = msg })
    fmt

let sort_findings fs =
  List.stable_sort
    (fun a b ->
      match compare (severity_rank a.f_severity) (severity_rank b.f_severity) with
      | 0 -> (
        match compare a.f_rule b.f_rule with
        | 0 -> (
          match compare a.f_func b.f_func with
          | 0 -> compare a.f_addr b.f_addr
          | c -> c)
        | c -> c)
      | c -> c)
    fs

let publish fs =
  let reg = Obs.Metrics.default in
  let count sev =
    List.length (List.filter (fun f -> f.f_severity = sev) fs)
  in
  Obs.Metrics.incr ~by:(List.length fs)
    (Obs.Metrics.counter reg "analysis.lint.findings");
  Obs.Metrics.incr ~by:(count Error)
    (Obs.Metrics.counter reg "analysis.lint.errors");
  Obs.Metrics.incr ~by:(count Warning)
    (Obs.Metrics.counter reg "analysis.lint.warnings");
  Obs.Metrics.incr ~by:(count Info)
    (Obs.Metrics.counter reg "analysis.lint.infos");
  List.iter
    (fun f ->
      Obs.Metrics.incr
        (Obs.Metrics.counter reg ("analysis.lint.fired." ^ f.f_rule)))
    fs

(* ------------------------------------------------------------------ *)
(* Amortized static analyses: one bundle shared by every profile
   linted against the same executable *)

type statics = {
  s_cfg : Cfg.t;
  s_indirect : Indirect.t;
  s_arities : int option array;
  s_doms : Dom.t option array;
  s_live : Facts.live option array;
  s_cp : Facts.cp option array;
}

let prepare (o : Objfile.t) =
  Obs.Trace.with_span ~cat:"analysis" "lint-prepare" @@ fun () ->
  let cfg = Cfg.build o in
  let indirect = Indirect.analyze o in
  let arities = Facts.arities ~indirect cfg in
  let n = Array.length cfg.Cfg.cfg_funcs in
  let doms = Array.make n None in
  let live = Array.make n None in
  let cp = Array.make n None in
  Array.iteri
    (fun i (f : Cfg.func) ->
      if Array.length f.Cfg.fn_blocks > 0 then begin
        doms.(i) <- Some (Dom.compute f);
        let nslots = Option.value arities.(i) ~default:0 in
        live.(i) <- Some (Facts.liveness ~nslots o f);
        cp.(i) <- Some (Facts.constprop ?arity:arities.(i) o f)
      end)
    cfg.Cfg.cfg_funcs;
  {
    s_cfg = cfg;
    s_indirect = indirect;
    s_arities = arities;
    s_doms = doms;
    s_live = live;
    s_cp = cp;
  }

(* Whether the block holding [pc] heads a loop: a [Jump] at or after
   its start jumps back to it, as codegen emits a loop's continue edge.
   A dominator back edge is not enough: in [while (1) { return 0; }]
   the continue jump is unreachable. *)
let loop_top (o : Objfile.t) (f : Cfg.func) pc =
  let s = f.Cfg.fn_symbol in
  match Cfg.block_index f pc with
  | None -> false
  | Some bi ->
    let b = f.Cfg.fn_blocks.(bi) in
    let rec scan q =
      q < s.Objfile.addr + s.Objfile.size
      && (o.Objfile.text.(q) = Instr.Jump b.Cfg.bb_start || scan (q + 1))
    in
    scan b.Cfg.bb_start

(* " (line L)" for a pc the line table covers *)
let line_at o addr =
  match Objfile.line_of_addr o addr with
  | Some l -> Printf.sprintf " (line %d)" l
  | None -> ""

(* The dataflow-backed binary rules: dead stores, dead parameters,
   constant branches, constant-dead blocks, irreducible loops, indirect
   calls with no callee. All are restricted to blocks both the CFG and
   constant propagation consider executable — findings inside
   already-dead code are noise. *)

let dataflow_findings (st : statics) =
  let o = st.s_cfg.Cfg.cfg_obj in
  let acc = ref [] in
  let emit f = acc := f :: !acc in
  let at = line_at o in
  (* the Calli sites ascend by address, as the functions do: each
     function takes its own off the front *)
  let sites = ref st.s_indirect.Indirect.i_sites in
  Array.iteri
    (fun i (f : Cfg.func) ->
      let sym = f.Cfg.fn_symbol in
      let rec take mine = function
        | (pc, r) :: rest when pc < sym.Objfile.addr + sym.Objfile.size ->
          take ((pc, r) :: mine) rest
        | rest ->
          sites := rest;
          List.rev mine
      in
      let calli = take [] !sites in
      match (st.s_doms.(i), st.s_live.(i), st.s_cp.(i)) with
      | Some dom, Some live, Some cp ->
        let name = f.Cfg.fn_symbol.Objfile.name in
        let alive bi = f.Cfg.fn_reachable.(bi) && cp.Facts.cp_executable.(bi) in
        List.iter
          (fun (pc, slot) ->
            match Cfg.block_index f pc with
            | Some bi when alive bi ->
              emit
                (finding ~addr:pc ~func:name "dead-store"
                   "%s: the store to slot %d at pc %d%s is never read" name
                   slot pc (at pc))
            | _ -> ())
          live.Facts.lv_dead_stores;
        (match st.s_arities.(i) with
        | Some arity when arity > 0 ->
          List.iter
            (fun p ->
              emit
                (finding ~addr:f.Cfg.fn_symbol.Objfile.addr ~func:name
                   "dead-param"
                   "%s: parameter %d of %d is never read (every call site \
                    passes %d argument%s)"
                   name (p + 1) arity arity
                   (if arity = 1 then "" else "s")))
            (Facts.dead_params live ~arity)
        | _ -> ());
        List.iter
          (fun (pc, c) ->
            (* a nonzero constant heading a loop is the deliberate
               infinite loop, [while (1)] *)
            if c = 0 || not (loop_top o f pc) then
              emit
                (finding ~addr:pc ~func:name "const-branch"
                   "%s: the branch at pc %d%s always %s — its condition is \
                    the constant %d"
                   name pc (at pc)
                   (if c = 0 then "jumps" else "falls through")
                   c))
          cp.Facts.cp_const_branches;
        List.iter
          (fun bi ->
            let b = f.Cfg.fn_blocks.(bi) in
            emit
              (finding ~addr:b.Cfg.bb_start ~func:name "const-dead-block"
                 "%s: block [%d..%d) is unreachable once constant conditions \
                  are decided"
                 name b.Cfg.bb_start
                 (b.Cfg.bb_start + b.Cfg.bb_len)))
          cp.Facts.cp_dead_blocks;
        if dom.Dom.d_irreducible then
          emit
            (finding ~addr:f.Cfg.fn_symbol.Objfile.addr ~func:name
               "irreducible-loop"
               "%s: control flow contains a multi-entry loop; natural-loop \
                analysis (and any loop-based optimization) is partial"
               name);
        List.iter
          (fun (pc, r) ->
            match (r, Cfg.block_index f pc) with
            | Indirect.Resolved [], Some bi when alive bi ->
              emit
                (finding ~addr:pc ~func:name "calli-no-callee"
                   "%s: the indirect call at pc %d%s can reach no function — \
                    its callee is never assigned a function value"
                   name pc (at pc))
            | _ -> ())
          calli
      | _ -> ())
    st.s_cfg.Cfg.cfg_funcs;
  List.rev !acc

let static_warnings st =
  List.filter (fun f -> f.f_severity = Warning) (dataflow_findings st)

(* The object records no declared arity ([Facts.arities] infers one
   from the call sites themselves), so the candidates come from
   [Indirect] and their parameter counts from the source. *)
let arity_warnings ~params (st : statics) =
  let o = st.s_cfg.Cfg.cfg_obj in
  let declared = Hashtbl.create 16 in
  List.iter (fun (f, n) -> Hashtbl.replace declared f n) params;
  let name id = o.Objfile.symbols.(id).Objfile.name in
  let arity id = Option.value (Hashtbl.find_opt declared (name id)) ~default:0 in
  List.filter_map
    (fun (pc, _) ->
      match (o.Objfile.text.(pc), Indirect.callees o st.s_indirect ~pc) with
      | Instr.Calli n, (_ :: _ as ids)
        when not (List.exists (fun id -> arity id = n) ids) ->
        Some
          (Printf.sprintf
             "%s: no possible callee of the indirect call at pc %d%s takes %d \
              argument%s (candidates: %s)"
             (match Objfile.symbol_index o pc with
             | Some f -> name f
             | None -> string_of_int pc)
             pc (line_at o pc) n
             (if n = 1 then "" else "s")
             (String.concat ", "
                (List.map
                   (fun id -> Printf.sprintf "%s/%d" (name id) (arity id))
                   ids)))
      | _ -> None)
    st.s_indirect.Indirect.i_sites

(* ------------------------------------------------------------------ *)
(* Binary-only rules *)

(* A text scan, safe on any image. *)
let anomaly_findings o =
  List.map
    (fun a ->
      finding ~addr:a.Objcode.Scan.an_addr "call-anomaly" "%s"
        (Objcode.Scan.anomaly_to_string a))
    (Objcode.Scan.anomalies o)

let binary_findings ?statics (o : Objfile.t) =
  let statics = match statics with Some s -> s | None -> prepare o in
  let cfg = statics.s_cfg in
  let indirect = statics.s_indirect in
  let acc = ref (List.rev (anomaly_findings o)) in
  let reach = Reach.analyze ~indirect cfg in
  List.iter
    (fun name ->
      acc :=
        finding "profiled-unreachable"
          "%s is instrumented but unreachable from the entry point" name
        :: !acc)
    reach.Reach.r_dead_profiled;
  List.iter
    (fun (fn, start, len) ->
      acc :=
        finding ~addr:start "dead-blocks"
          "%s: block [%d..%d) is unreachable within the function" fn start
          (start + len)
        :: !acc)
    reach.Reach.r_dead_blocks;
  (reach, List.rev !acc @ dataflow_findings statics)

(* The static passes assume a structurally valid image (they crash on
   a negative call arity, for one), so an image that fails validation
   gets its binary-invalid findings and the text scan's call
   anomalies, nothing else. [None] for a valid image. *)
let invalid_findings o =
  match Objfile.validate o with
  | Ok () -> None
  | Error es ->
    Some (List.map (finding "binary-invalid" "%s") es @ anomaly_findings o)

let binary_result fs =
  let fs = sort_findings fs in
  publish fs;
  { l_findings = fs; l_arcs_checked = 0; l_buckets_checked = 0 }

let lint_binary ?statics o =
  Obs.Trace.with_span ~cat:"analysis" "lint-binary" @@ fun () ->
  match invalid_findings o with
  | Some invalid -> binary_result invalid
  | None -> binary_result (snd (binary_findings ?statics o))

(* ------------------------------------------------------------------ *)
(* PGO pairing rules: does an optimized rebuild still line up with the
   baseline it was derived from? Old profiles of the baseline pair
   with the baseline, fresh profiles with the rebuild; these rules
   flag what changed in between so neither gets misread. *)

let lint_pgo ~(baseline : Objfile.t) (o : Objfile.t) =
  Obs.Trace.with_span ~cat:"analysis" "lint-pgo" @@ fun () ->
  let acc = ref [] in
  let entry_name ob =
    match Objfile.find_symbol ob ob.Objfile.entry with
    | Some s -> s.Objfile.name
    | None -> "<none>"
  in
  if entry_name baseline <> entry_name o then
    acc :=
      finding "pgo-entry-mismatch" "baseline enters %s, the rebuild enters %s"
        (entry_name baseline) (entry_name o)
      :: !acc;
  (* name-keyed tables built once; a scan of either binary per
     baseline symbol makes the rule quadratic in the program *)
  let rebuilt = Hashtbl.create (Array.length o.Objfile.symbols) in
  Array.iter
    (fun (s : Objfile.symbol) ->
      if not (Hashtbl.mem rebuilt s.name) then Hashtbl.add rebuilt s.name s)
    o.Objfile.symbols;
  let callees ob =
    let t = Hashtbl.create 64 in
    List.iter
      (fun (_, c) -> Hashtbl.replace t ob.Objfile.symbols.(c).Objfile.name ())
      (Objcode.Scan.static_arcs ob);
    t
  in
  let base_callees = callees baseline and opt_callees = callees o in
  Array.iter
    (fun (s : Objfile.symbol) ->
      match Hashtbl.find_opt rebuilt s.Objfile.name with
      | None ->
        acc :=
          finding ~func:s.Objfile.name "pgo-symbol-missing"
            "%s exists in the baseline but not in the optimized binary"
            s.Objfile.name
          :: !acc
      | Some s' ->
        if s.Objfile.profiled && not s'.Objfile.profiled then
          acc :=
            finding ~func:s.Objfile.name "pgo-profiled-dropped"
              "%s was instrumented in the baseline but is not any more"
              s.Objfile.name
            :: !acc;
        if
          Hashtbl.mem base_callees s.Objfile.name
          && not (Hashtbl.mem opt_callees s.Objfile.name)
        then
          acc :=
            finding ~func:s.Objfile.name "pgo-inlined-away"
              "every direct call to %s was inlined; old profiles of the \
               baseline attribute its time to the routine itself, fresh ones \
               to its callers"
              s.Objfile.name
            :: !acc)
    baseline.Objfile.symbols;
  let fs = sort_findings (List.rev !acc) in
  publish fs;
  { l_findings = fs; l_arcs_checked = 0; l_buckets_checked = 0 }

(* ------------------------------------------------------------------ *)
(* Profile rules *)

let hist_findings (o : Objfile.t) (g : Gmon.t) =
  let len = Array.length o.Objfile.text in
  let h = g.Gmon.hist in
  let acc = ref [] in
  if h.h_lowpc < 0 || h.h_highpc > len then
    acc :=
      finding "hist-geometry"
        "histogram covers pc [%d,%d) but the text segment is [0,%d)" h.h_lowpc
        h.h_highpc len
      :: !acc;
  (* symbols are address-sorted: either [lo] falls inside one (binary
     search), or one must start within (lo, hi) — checked against the
     first symbol at or after [lo]. A linear scan here multiplies by
     the bucket count and dominates the lint on dense histograms. *)
  let covered_by_symbol lo hi =
    match Objfile.symbol_index o lo with
    | Some _ -> true
    | None ->
      let syms = o.Objfile.symbols in
      let n = Array.length syms in
      let rec first l h =
        if l >= h then l
        else
          let m = (l + h) / 2 in
          if syms.(m).Objfile.addr < lo then first (m + 1) h else first l m
      in
      let i = first 0 n in
      i < n && syms.(i).Objfile.addr < hi
  in
  if h.h_bucket_size <= 0 then
    (* no bucket has an address range, so none is read, here or by the
       other profile rules ({!Gmon.iter_overlapping} visits nothing) *)
    acc :=
      finding "hist-geometry"
        "histogram bucket size %d is not positive: no bucket maps to an \
         address"
        h.h_bucket_size
      :: !acc
  else
    Array.iteri
      (fun i count ->
        if count > 0 then begin
          let lo, hi = Gmon.bucket_range h i in
          if lo < 0 || hi > len then
            acc :=
              finding ~addr:lo "hist-geometry"
                "bucket %d ([%d,%d), %d tick%s) falls outside the text segment \
                 [0,%d)"
                i lo hi count
                (if count = 1 then "" else "s")
                len
              :: !acc
          else if not (covered_by_symbol lo hi) then
            acc :=
              finding ~addr:lo "hist-gap-ticks"
                "bucket %d ([%d,%d)) has %d tick%s but no routine covers it" i lo
                hi count
                (if count = 1 then "" else "s")
              :: !acc
        end)
      h.h_counts;
  List.rev !acc

let arc_findings (o : Objfile.t) (indirect : Indirect.t) (g : Gmon.t) =
  let len = Array.length o.Objfile.text in
  let acc = ref [] in
  let emit f = acc := f :: !acc in
  List.iter
    (fun (a : Gmon.arc) ->
      let callee_entry = Objfile.func_id_of_addr o a.a_self <> None in
      (* the callee end *)
      (if not callee_entry then
         emit
           (finding ~addr:a.a_self "arc-into-non-entry"
              "arc (%d -> %d, count %d) lands %s" a.a_from a.a_self a.a_count
              (match Objfile.find_symbol o a.a_self with
              | Some s -> Printf.sprintf "mid-%s, not at a function entry" s.name
              | None -> "outside the symbol table"))
       else
         match Objfile.find_symbol o a.a_self with
         | Some s when not s.profiled ->
           emit
             (finding ~addr:a.a_self "arc-into-unprofiled"
                "arc (%d -> %s, count %d) lands on an uninstrumented routine: \
                 the monitor cannot have recorded it"
                a.a_from s.name a.a_count)
         | _ -> ());
      (* the call-site end *)
      if a.a_from < 0 || a.a_from >= len then
        emit
          (finding "arc-spontaneous"
             "arc from pseudo-site %d into %s: a spontaneous root" a.a_from
             (match Objfile.find_symbol o a.a_self with
             | Some s -> s.name
             | None -> string_of_int a.a_self))
      else
        match o.Objfile.text.(a.a_from) with
        | Instr.Call (target, _) ->
          if callee_entry && target <> a.a_self then
            emit
              (finding ~addr:a.a_from "arc-infeasible"
                 "site %d holds a call to %s but the arc (count %d) claims %s"
                 a.a_from
                 (match Objfile.find_symbol o target with
                 | Some s when s.addr = target -> s.name
                 | _ -> string_of_int target)
                 a.a_count
                 (match Objfile.find_symbol o a.a_self with
                 | Some s -> s.name
                 | None -> string_of_int a.a_self))
        | Instr.Calli _ -> (
          match Indirect.resolution indirect ~site:a.a_from with
          | Some (Resolved ts) when callee_entry && not (List.mem a.a_self ts) ->
            emit
              (finding ~addr:a.a_from "arc-infeasible"
                 "indirect site %d can reach {%s} but the arc (count %d) \
                  claims %s"
                 a.a_from
                 (String.concat ", "
                    (List.map
                       (fun t ->
                         match Objfile.find_symbol o t with
                         | Some s -> s.name
                         | None -> string_of_int t)
                       ts))
                 a.a_count
                 (match Objfile.find_symbol o a.a_self with
                 | Some s -> s.name
                 | None -> string_of_int a.a_self))
          | _ -> () (* Unresolved: anything is feasible; sound, silent *))
        | ins ->
          emit
            (finding ~addr:a.a_from "arc-from-non-call"
               "arc (%d -> %d, count %d): site holds %s, not a call" a.a_from
               a.a_self a.a_count (Instr.to_string ins)))
    g.Gmon.arcs;
  List.rev !acc

(* The profile-vs-statics contradiction rules: the histogram and the
   arcs are checked against the dominator/loop/constant structure the
   dataflow passes derived.

   [loop-no-ticks] only counts buckets lying {e fully} inside a loop
   block, and only fires once a function has accumulated enough ticks
   ([hot_ticks]) that a genuinely iterating loop would almost surely
   have been sampled. [loop-call-unobserved] only speaks about call
   sites whose every feasible target is an instrumented entry — the
   monitor records no arcs into unprofiled code, so silence there
   proves nothing — and requires a tick inside the call's own block:
   a loop body that simply never happened to be entered (an empty
   hash chain, an error path) is silent for a benign reason. *)

let hot_ticks = 64

let statics_profile_findings (st : statics) (o : Objfile.t) (g : Gmon.t) =
  let acc = ref [] in
  let emit f = acc := f :: !acc in
  let h = g.Gmon.hist in
  (* these run once per block, so each visits only the buckets
     overlapping [lo,hi); a sweep of the whole histogram each time is
     what pushes the lint past its per-instruction budget *)
  let buckets_within lo hi =
    (* (buckets fully inside [lo,hi), their summed ticks) *)
    let n = ref 0 and t = ref 0 in
    Gmon.iter_overlapping h ~lo ~hi (fun i count ->
        let blo, bhi = Gmon.bucket_range h i in
        if blo >= lo && bhi <= hi && bhi > blo then begin
          incr n;
          t := !t + count
        end);
    (!n, !t)
  in
  let ticks_touching lo hi =
    let t = ref 0 in
    Gmon.iter_overlapping h ~lo ~hi (fun _ count ->
        if count > 0 then t := !t + count);
    !t
  in
  (* index the arcs once: the per-function fan-in totals and the
     per-site "did any arc leave here" test are each asked O(funcs) and
     O(call sites) times, and a list scan per ask is quadratic *)
  let arc_into = Reach.calls_into o g in
  let arc_from = Hashtbl.create 64 in
  List.iter
    (fun (a : Gmon.arc) ->
      if a.Gmon.a_count > 0 then Hashtbl.replace arc_from a.Gmon.a_from ())
    g.Gmon.arcs;
  Array.iteri
    (fun i (f : Cfg.func) ->
      match (st.s_doms.(i), st.s_cp.(i)) with
      | Some dom, Some cp ->
        let sym = f.Cfg.fn_symbol in
        let name = sym.Objfile.name in
        let fticks = ticks_touching sym.Objfile.addr (sym.Objfile.addr + sym.Objfile.size) in
        let fcalls = arc_into.(i) in
        (* dead-block-ticks: samples inside code no execution reaches *)
        Array.iteri
          (fun bi (b : Cfg.block) ->
            if not (f.Cfg.fn_reachable.(bi) && cp.Facts.cp_executable.(bi)) then begin
              let lo = b.Cfg.bb_start and hi = b.Cfg.bb_start + b.Cfg.bb_len in
              let _, t = buckets_within lo hi in
              if t > 0 then
                emit
                  (finding ~addr:lo ~func:name "dead-block-ticks"
                     "%s: statically-dead block [%d..%d) shows %d tick%s — \
                      the profile cannot describe this binary"
                     name lo hi t
                     (if t = 1 then "" else "s"))
            end)
          f.Cfg.fn_blocks;
        (* loop-call-unobserved: a tick inside the call's own block
           proves the block ran — every call in it must then have
           fired, so a missing arc is a contradiction, not merely a
           loop body that never happened to be entered *)
        if fticks > 0 || fcalls > 0 then
          Array.iteri
            (fun bi (b : Cfg.block) ->
              if dom.Dom.d_depth.(bi) >= 1 && f.Cfg.fn_reachable.(bi)
                 && cp.Facts.cp_executable.(bi)
                 && ticks_touching b.Cfg.bb_start
                      (b.Cfg.bb_start + b.Cfg.bb_len)
                    > 0 then
                List.iter
                  (fun pc ->
                    let provable =
                      match Indirect.callees o st.s_indirect ~pc with
                      | [] -> false
                      | ids ->
                        List.for_all
                          (fun id -> o.Objfile.symbols.(id).Objfile.profiled)
                          ids
                    in
                    if provable && not (Hashtbl.mem arc_from pc) then
                      emit
                        (finding ~addr:pc ~func:name "loop-call-unobserved"
                           "%s: the call at pc %d sits at loop depth %d yet \
                            no dynamic arc ever left it (function saw %d \
                            tick%s, %d call%s)"
                           name pc dom.Dom.d_depth.(bi) fticks
                           (if fticks = 1 then "" else "s")
                           fcalls
                           (if fcalls = 1 then "" else "s")))
                  b.Cfg.bb_calls)
            f.Cfg.fn_blocks;
        (* loop-no-ticks *)
        if fticks >= hot_ticks then
          Array.iter
            (fun (l : Dom.loop) ->
              let contained = ref 0 and ticks = ref 0 in
              List.iter
                (fun bi ->
                  let b = f.Cfg.fn_blocks.(bi) in
                  let n, t =
                    buckets_within b.Cfg.bb_start
                      (b.Cfg.bb_start + b.Cfg.bb_len)
                  in
                  contained := !contained + n;
                  ticks := !ticks + t)
                l.Dom.l_body;
              if !contained > 0 && !ticks = 0 then
                let hb = f.Cfg.fn_blocks.(l.Dom.l_header) in
                emit
                  (finding ~addr:hb.Cfg.bb_start ~func:name "loop-no-ticks"
                     "%s: the loop headed at pc %d was never observed \
                      ticking though its function accumulated %d ticks"
                     name hb.Cfg.bb_start fticks))
            dom.Dom.d_loops
      | _ -> ())
    st.s_cfg.Cfg.cfg_funcs;
  List.rev !acc

let lint ?statics (o : Objfile.t) (g : Gmon.t) =
  Obs.Trace.with_span ~cat:"analysis" "lint" @@ fun () ->
  match invalid_findings o with
  | Some invalid -> binary_result invalid
  | None ->
  let statics = match statics with Some s -> s | None -> prepare o in
  let indirect = statics.s_indirect in
  let reach, binary = binary_findings ~statics o in
  let hist = hist_findings o g in
  let arcs = arc_findings o indirect g in
  let versus = statics_profile_findings statics o g in
  let contradictions =
    List.map
      (fun (c : Reach.contradiction) ->
        finding "dead-code-ticks"
          "%s is unreachable in the static graph yet shows %d tick%s and %d \
           incoming call%s"
          c.c_func c.c_ticks
          (if c.c_ticks = 1 then "" else "s")
          c.c_calls
          (if c.c_calls = 1 then "" else "s"))
      (Reach.crosscheck reach o g)
  in
  let fs = sort_findings (binary @ hist @ arcs @ contradictions @ versus) in
  publish fs;
  {
    l_findings = fs;
    l_arcs_checked = List.length g.Gmon.arcs;
    l_buckets_checked =
      (if g.Gmon.hist.h_bucket_size > 0 then Array.length g.Gmon.hist.h_counts
       else 0);
  }

(* ------------------------------------------------------------------ *)
(* Verdicts and rendering *)

let worst t =
  List.fold_left
    (fun acc f ->
      match acc with
      | None -> Some f.f_severity
      | Some s ->
        Some (if severity_rank f.f_severity < severity_rank s then f.f_severity else s))
    None t.l_findings

let failed ~strict t =
  match worst t with
  | Some Error -> true
  | Some Warning -> strict
  | Some Info | None -> false

let exit_code ~strict t = if failed ~strict t then 2 else 0

let render t =
  let buf = Buffer.create 512 in
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "%s [%s] %s%s\n"
           (severity_to_string f.f_severity)
           f.f_rule f.f_msg
           (match f.f_addr with
           | Some a -> Printf.sprintf " (addr %d)" a
           | None -> "")))
    t.l_findings;
  let count sev =
    List.length (List.filter (fun f -> f.f_severity = sev) t.l_findings)
  in
  Buffer.add_string buf
    (Printf.sprintf
       "proflint: %d error(s), %d warning(s), %d note(s); %d arc(s) and %d \
        bucket(s) checked\n"
       (count Error) (count Warning) (count Info) t.l_arcs_checked
       t.l_buckets_checked);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Aggregation across profiles, and machine-readable output *)

type aggregate = { a_finding : finding; a_profiles : int }

let aggregate (results : t list) =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun r ->
      List.iter
        (fun f ->
          let key = (f.f_rule, f.f_func, f.f_addr, f.f_msg) in
          match Hashtbl.find_opt tbl key with
          | None ->
            Hashtbl.add tbl key (ref 1);
            order := f :: !order
          | Some n -> incr n)
        r.l_findings)
    results;
  List.map
    (fun f ->
      {
        a_finding = f;
        a_profiles = !(Hashtbl.find tbl (f.f_rule, f.f_func, f.f_addr, f.f_msg));
      })
    (sort_findings (List.rev !order))

let render_aggregate ~nprofiles results =
  let aggs = aggregate results in
  let buf = Buffer.create 512 in
  List.iter
    (fun a ->
      let f = a.a_finding in
      Buffer.add_string buf
        (Printf.sprintf "%s [%s] %s%s (%d/%d profiles)\n"
           (severity_to_string f.f_severity)
           f.f_rule f.f_msg
           (match f.f_addr with
           | Some ad -> Printf.sprintf " (addr %d)" ad
           | None -> "")
           a.a_profiles nprofiles))
    aggs;
  let count sev =
    List.length (List.filter (fun a -> a.a_finding.f_severity = sev) aggs)
  in
  let arcs = List.fold_left (fun n r -> n + r.l_arcs_checked) 0 results in
  let buckets = List.fold_left (fun n r -> n + r.l_buckets_checked) 0 results in
  Buffer.add_string buf
    (Printf.sprintf
       "proflint: %d distinct finding(s) over %d profile(s): %d error(s), %d \
        warning(s), %d note(s); %d arc(s) and %d bucket(s) checked\n"
       (List.length aggs) nprofiles (count Error) (count Warning) (count Info)
       arcs buckets);
  Buffer.contents buf

let json_schema = "gprof-repro.lint/1"

let to_json ~binary ~profiles results =
  let aggs =
    (* deterministic machine order: rule, then function, then pc *)
    List.sort
      (fun a b ->
        match compare a.a_finding.f_rule b.a_finding.f_rule with
        | 0 -> (
          match compare a.a_finding.f_func b.a_finding.f_func with
          | 0 -> (
            match compare a.a_finding.f_addr b.a_finding.f_addr with
            | 0 -> compare a.a_finding.f_msg b.a_finding.f_msg
            | c -> c)
          | c -> c)
        | c -> c)
      (aggregate results)
  in
  let buf = Buffer.create 2048 in
  let j = Obs.Jsonbuf.escape buf in
  let count sev =
    List.length (List.filter (fun a -> a.a_finding.f_severity = sev) aggs)
  in
  Obs.Jsonbuf.obj buf
    [
      ("schema", fun () -> j json_schema);
      ("binary", fun () -> j binary);
      ("profiles", fun () -> Obs.Jsonbuf.arr buf profiles j);
      ( "summary",
        fun () ->
          Obs.Jsonbuf.obj buf
            [
              ("findings", fun () -> Obs.Jsonbuf.int buf (List.length aggs));
              ("errors", fun () -> Obs.Jsonbuf.int buf (count Error));
              ("warnings", fun () -> Obs.Jsonbuf.int buf (count Warning));
              ("notes", fun () -> Obs.Jsonbuf.int buf (count Info));
              ( "arcs_checked",
                fun () ->
                  Obs.Jsonbuf.int buf
                    (List.fold_left (fun n r -> n + r.l_arcs_checked) 0 results)
              );
              ( "buckets_checked",
                fun () ->
                  Obs.Jsonbuf.int buf
                    (List.fold_left
                       (fun n r -> n + r.l_buckets_checked)
                       0 results) );
            ] );
      ( "findings",
        fun () ->
          Obs.Jsonbuf.arr buf aggs (fun a ->
              let f = a.a_finding in
              Obs.Jsonbuf.obj buf
                [
                  ("rule", fun () -> j f.f_rule);
                  ( "severity",
                    fun () -> j (severity_to_string f.f_severity) );
                  ( "func",
                    fun () ->
                      match f.f_func with
                      | None -> Buffer.add_string buf "null"
                      | Some fn -> j fn );
                  ( "addr",
                    fun () ->
                      match f.f_addr with
                      | None -> Buffer.add_string buf "null"
                      | Some ad -> Obs.Jsonbuf.int buf ad );
                  ("profiles", fun () -> Obs.Jsonbuf.int buf a.a_profiles);
                  ("msg", fun () -> j f.f_msg);
                ]) );
    ];
  Buffer.add_char buf '\n';
  Buffer.contents buf
