(* ------------------------------------------------------------------ *)
(* Bit sets *)

module Bits = struct
  (* immutable: every operation copies; widths are small (defs or
     slots per function) so the copies are a word or two *)
  type t = int array

  let bits_per_word = Sys.int_size

  let empty w =
    if w < 0 then invalid_arg "Bits.empty: negative width";
    Array.make ((w + bits_per_word - 1) / bits_per_word) 0

  let check t i =
    if i < 0 || i / bits_per_word >= Array.length t then
      invalid_arg "Bits: element out of width"

  let add t i =
    check t i;
    let t' = Array.copy t in
    t'.(i / bits_per_word) <-
      t'.(i / bits_per_word) lor (1 lsl (i mod bits_per_word));
    t'

  let remove t i =
    check t i;
    let t' = Array.copy t in
    t'.(i / bits_per_word) <-
      t'.(i / bits_per_word) land lnot (1 lsl (i mod bits_per_word));
    t'

  let mem t i =
    i >= 0
    && i / bits_per_word < Array.length t
    && t.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

  let zip op a b =
    if Array.length a <> Array.length b then
      invalid_arg "Bits: width mismatch";
    Array.init (Array.length a) (fun i -> op a.(i) b.(i))

  let union a b = zip ( lor ) a b
  let diff a b = zip (fun x y -> x land lnot y) a b

  (* hand-rolled: polymorphic compare on the word array is a measurable
     cost in the solver loop, which tests equality on every visit *)
  let equal a b =
    a == b
    || Array.length a = Array.length b
       &&
       let rec go i = i < 0 || (a.(i) = b.(i) && go (i - 1)) in
       go (Array.length a - 1)
end

(* ------------------------------------------------------------------ *)
(* Graphs *)

type graph = {
  g_entry : int;
  g_succs : int array array;
  g_preds : int array array;
}

let graph_of_succs ~entry succs =
  let n = Array.length succs in
  if entry < 0 || entry >= n then invalid_arg "Dataflow.graph_of_succs: entry";
  let preds = Array.make n [] in
  Array.iteri
    (fun src ss ->
      List.iter
        (fun dst ->
          if dst < 0 || dst >= n then
            invalid_arg "Dataflow.graph_of_succs: successor out of range";
          preds.(dst) <- src :: preds.(dst))
        ss)
    succs;
  {
    g_entry = entry;
    g_succs = Array.map Array.of_list succs;
    g_preds = Array.map (fun l -> Array.of_list (List.rev l)) preds;
  }

let reachable g =
  let n = Array.length g.g_succs in
  let seen = Array.make n false in
  let rec go b =
    if not seen.(b) then begin
      seen.(b) <- true;
      Array.iter go g.g_succs.(b)
    end
  in
  go g.g_entry;
  seen

(* ------------------------------------------------------------------ *)
(* The framework *)

type direction = Forward | Backward
type stats = { st_iterations : int; st_converged : bool }

module type LATTICE = sig
  type t

  val bottom : t
  val equal : t -> t -> bool
  val join : t -> t -> t
end

(* the counters are looked up once — a solve is a few microseconds and
   a string-keyed registry find per publish would be a visible tax *)
let publish =
  let reg = Obs.Metrics.default in
  let passes = lazy (Obs.Metrics.counter reg "analysis.dataflow.passes") in
  let iters = lazy (Obs.Metrics.counter reg "analysis.dataflow.iterations") in
  let fuel = lazy (Obs.Metrics.counter reg "analysis.dataflow.fuel_exhausted") in
  fun (st : stats) ->
    Obs.Metrics.incr (Lazy.force passes);
    Obs.Metrics.incr ~by:st.st_iterations (Lazy.force iters);
    if not st.st_converged then Obs.Metrics.incr (Lazy.force fuel)

module Make (L : LATTICE) = struct
  type spec = {
    direction : direction;
    boundary : L.t;
    transfer : int -> L.t -> L.t;
    edge : (int -> int -> L.t -> L.t option) option;
  }

  type result = { r_in : L.t array; r_out : L.t array; r_stats : stats }

  (* The solver always propagates along "next" edges; for a backward
     analysis next = CFG predecessors and the boundary enters at the
     exit blocks. The [edge] hook is called in CFG orientation in both
     directions. *)

  let flow g spec =
    let n = Array.length g.g_succs in
    let next, prev =
      match spec.direction with
      | Forward -> (g.g_succs, g.g_preds)
      | Backward -> (g.g_preds, g.g_succs)
    in
    let is_root =
      match spec.direction with
      | Forward -> fun b -> b = g.g_entry
      | Backward -> fun b -> Array.length g.g_succs.(b) = 0
    in
    let edge src dst fact =
      match spec.edge with
      | None -> Some fact
      | Some e -> (
        match spec.direction with
        | Forward -> e src dst fact
        | Backward -> e dst src fact)
    in
    (n, next, prev, is_root, edge)

  let input ~prev ~is_root ~edge spec out b =
    let fact = if is_root b then spec.boundary else L.bottom in
    Array.fold_left
      (fun fact p ->
        match edge p b out.(p) with
        | None -> fact
        | Some v -> L.join fact v)
      fact prev.(b)

  let solve ?fuel g spec =
    let n, next, prev, is_root, edge = flow g spec in
    let fuel = match fuel with Some f -> f | None -> max 1024 (64 * n) in
    let inb = Array.make n L.bottom and out = Array.make n L.bottom in
    let on_list = Array.make n true in
    (* the worklist is a preallocated ring: [on_list] dedup bounds the
       pending entries at [n], and a heap-allocated queue cell per push
       shows up in the profile of these microsecond-scale solves *)
    let qbuf = Array.make n 0 in
    let qhead = ref 0 and qlen = ref 0 in
    let qpush b =
      qbuf.((!qhead + !qlen) mod n) <- b;
      incr qlen
    in
    let qpop () =
      let b = qbuf.(!qhead) in
      qhead := (!qhead + 1) mod n;
      decr qlen;
      b
    in
    (* seed every block so gen-style facts appear even where no
       boundary flows (e.g. liveness inside an infinite loop) *)
    (match spec.direction with
    | Forward -> for b = 0 to n - 1 do qpush b done
    | Backward -> for b = n - 1 downto 0 do qpush b done);
    let iters = ref 0 in
    let exhausted = ref false in
    while !qlen > 0 do
      let b = qpop () in
      on_list.(b) <- false;
      if !iters >= fuel then begin
        exhausted := true;
        qlen := 0
      end
      else begin
        incr iters;
        let i = input ~prev ~is_root ~edge spec out b in
        inb.(b) <- i;
        let o = spec.transfer b i in
        if not (L.equal o out.(b)) then begin
          out.(b) <- o;
          Array.iter
            (fun s ->
              if not on_list.(s) then begin
                on_list.(s) <- true;
                qpush s
              end)
            next.(b)
        end
      end
    done;
    (* inputs of blocks that were on the list when fuel ran out may be
       stale; recompute them all once from the final outputs so r_in
       is at least internally consistent with r_out's sources. A
       converged run needs no repair: any change to a source's output
       re-queued the block, and its visit refreshed the input. *)
    if !exhausted then
      for b = 0 to n - 1 do
        inb.(b) <- input ~prev ~is_root ~edge spec out b
      done;
    let st = { st_iterations = !iters; st_converged = not !exhausted } in
    publish st;
    { r_in = inb; r_out = out; r_stats = st }

  let is_fixpoint g spec res =
    let n, _, prev, is_root, edge = flow g spec in
    let ok = ref true in
    for b = 0 to n - 1 do
      let i = input ~prev ~is_root ~edge spec res.r_out b in
      if not (L.equal i res.r_in.(b)) then ok := false;
      if not (L.equal (spec.transfer b i) res.r_out.(b)) then ok := false
    done;
    !ok
end
