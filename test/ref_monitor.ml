(* The monitor's arc table as it was before its record path was made
   allocation-free: a verbatim copy, kept only as the reference the
   parity property compares Vm.Monitor against. The keying type is
   Vm.Monitor's own, so one Vm.Machine.config drives both machines. *)

type keying = Vm.Monitor.keying = Site_primary | Callee_primary

let spontaneous_from = -1

(* The faithful mcount layout: [froms] is direct-mapped by the primary
   key (a text address); each entry is 0 for empty or a 1-based index
   into [tos]. A [tos] record holds the secondary key, the traversal
   count, and a 1-based link to the next record on the chain. *)
type cell = { mutable key2 : int; mutable count : int; mutable link : int }

type t = {
  keying : keying;
  text_size : int;
  froms : int array;
  tos : cell Util.Growvec.t;
  mutable spontaneous : int; (* head of the spontaneous chain, 1-based *)
  mutable n_records : int;
  mutable n_probes : int;
  mutable max_probe : int;
  probe_hist : int array; (* log2 buckets of probes-per-record *)
}

let base_cost = 10
let probe_cost = 2

let dummy_cell = { key2 = 0; count = 0; link = 0 }

let create ~text_size ~keying =
  {
    keying;
    text_size;
    froms = Array.make (max text_size 1) 0;
    tos = Util.Growvec.create ~capacity:256 ~dummy:dummy_cell ();
    spontaneous = 0;
    n_records = 0;
    n_probes = 0;
    max_probe = 0;
    probe_hist = Array.make Obs.Metrics.n_hist_buckets 0;
  }

let keying t = t.keying

(* Walk the chain headed by [head] (1-based) looking for [key2];
   returns (cell option, probes). *)
let find_on_chain t head key2 =
  let probes = ref 0 in
  let rec go idx =
    if idx = 0 then None
    else begin
      incr probes;
      let c = Util.Growvec.get t.tos (idx - 1) in
      if c.key2 = key2 then Some c else go c.link
    end
  in
  let r = go head in
  (r, !probes)

let push_cell t key2 link =
  Util.Growvec.push t.tos { key2; count = 1; link };
  Util.Growvec.length t.tos (* 1-based index of the new cell *)

let record t ~frompc ~selfpc =
  if selfpc < 0 || selfpc >= t.text_size then
    invalid_arg "Monitor.record: selfpc outside text segment";
  t.n_records <- t.n_records + 1;
  (* A caller outside the text segment — the negative sentinel the
     startup stub leaves, or an address past the end — is normalized
     to the one spontaneous pseudo-site before keying, so both keyings
     agree on the arc and distinct anomalous sources cannot smear into
     distinct records. *)
  let frompc =
    if frompc < 0 || frompc >= t.text_size then spontaneous_from else frompc
  in
  let spontaneous = frompc = spontaneous_from in
  let get_head, set_head, key2 =
    match t.keying with
    | Site_primary ->
      if spontaneous then
        (* All spontaneous invocations share one chain keyed by
           callee. *)
        ((fun () -> t.spontaneous), (fun h -> t.spontaneous <- h), selfpc)
      else
        ((fun () -> t.froms.(frompc)), (fun h -> t.froms.(frompc) <- h), selfpc)
    | Callee_primary ->
      (* The callee is a real address; the (possibly normalized)
         caller is just another secondary key. *)
      ((fun () -> t.froms.(selfpc)), (fun h -> t.froms.(selfpc) <- h), frompc)
  in
  let found, probes = find_on_chain t (get_head ()) key2 in
  t.n_probes <- t.n_probes + probes;
  if probes > t.max_probe then t.max_probe <- probes;
  let pb = Obs.Metrics.hist_bucket_of probes in
  t.probe_hist.(pb) <- t.probe_hist.(pb) + 1;
  (match found with
  | Some c -> c.count <- c.count + 1
  | None -> set_head (push_cell t key2 (get_head ())));
  base_cost + (probe_cost * probes)

let arcs t =
  let out = ref [] in
  let walk head decode =
    let rec go idx =
      if idx <> 0 then begin
        let c = Util.Growvec.get t.tos (idx - 1) in
        let a_from, a_self = decode c.key2 in
        out := { Gmon.a_from; a_self; a_count = c.count } :: !out;
        go c.link
      end
    in
    go head
  in
  Array.iteri
    (fun key1 head ->
      match t.keying with
      | Site_primary -> walk head (fun key2 -> (key1, key2))
      | Callee_primary -> walk head (fun key2 -> (key2, key1)))
    t.froms;
  (match t.keying with
  | Site_primary -> walk t.spontaneous (fun key2 -> (spontaneous_from, key2))
  | Callee_primary -> ());
  List.sort
    (fun a b -> compare (a.Gmon.a_from, a.Gmon.a_self) (b.Gmon.a_from, b.Gmon.a_self))
    !out

let distinct_arcs t = List.length (arcs t)

let total_records t = t.n_records

let total_probes t = t.n_probes

let max_probe t = t.max_probe

let probe_depth_hist t = Array.copy t.probe_hist

type chain_stats = { n_chains : int; n_cells : int; max_chain : int }

let chain_stats t =
  let n_chains = ref 0 and n_cells = ref 0 and max_chain = ref 0 in
  let walk head =
    if head <> 0 then begin
      incr n_chains;
      let len = ref 0 in
      let rec go idx =
        if idx <> 0 then begin
          incr len;
          go (Util.Growvec.get t.tos (idx - 1)).link
        end
      in
      go head;
      n_cells := !n_cells + !len;
      if !len > !max_chain then max_chain := !len
    end
  in
  Array.iter walk t.froms;
  walk t.spontaneous;
  { n_chains = !n_chains; n_cells = !n_cells; max_chain = !max_chain }

let observe t reg =
  let module M = Obs.Metrics in
  let g name v = M.set (M.gauge reg name) v in
  g "monitor.records" t.n_records;
  g "monitor.probes" t.n_probes;
  let cs = chain_stats t in
  g "monitor.chains" cs.n_chains;
  g "monitor.cells" cs.n_cells;
  g "monitor.chain_max" cs.max_chain;
  M.set_snapshot
    (M.histogram reg "monitor.probe_depth"
       ~help:"chain probes per mcount record")
    ~buckets:t.probe_hist ~count:t.n_records ~sum:t.n_probes ~max:t.max_probe

let reset t =
  Array.fill t.froms 0 (Array.length t.froms) 0;
  Util.Growvec.clear t.tos;
  t.spontaneous <- 0;
  t.n_records <- 0;
  t.n_probes <- 0;
  t.max_probe <- 0;
  Array.fill t.probe_hist 0 (Array.length t.probe_hist) 0
