type keying = Site_primary | Callee_primary

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

let push_cell t key2 link =
  Util.Growvec.push t.tos { key2; count = 1; link };
  Util.Growvec.length t.tos (* 1-based index of the new cell *)

(* Runs on every profiled call, so it allocates nothing but a new
   chain cell. *)
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
  (* The chain lives in [froms.(key1)]; under site keying all
     spontaneous invocations share the one chain [t.spontaneous],
     keyed by callee. Under callee keying the (possibly normalized)
     caller is just another secondary key. *)
  let site = match t.keying with Site_primary -> true | Callee_primary -> false in
  let key1 = if site then frompc else selfpc in
  let key2 = if site then selfpc else frompc in
  let head = if key1 = spontaneous_from then t.spontaneous else t.froms.(key1) in
  let idx = ref head and probes = ref 0 in
  while !idx > 0 do
    incr probes;
    let c = Util.Growvec.get t.tos (!idx - 1) in
    if c.key2 = key2 then begin
      c.count <- c.count + 1;
      idx := -1
    end
    else idx := c.link
  done;
  if !idx = 0 then begin
    let cell = push_cell t key2 head in
    if key1 = spontaneous_from then t.spontaneous <- cell else t.froms.(key1) <- cell
  end;
  t.n_probes <- t.n_probes + !probes;
  if !probes > t.max_probe then t.max_probe <- !probes;
  let pb = Obs.Metrics.hist_bucket_of !probes in
  t.probe_hist.(pb) <- t.probe_hist.(pb) + 1;
  base_cost + (probe_cost * !probes)

(* The arcs on the chain from [idx], consed onto [acc]. *)
let rec chain_arcs t ~site key1 idx acc =
  if idx = 0 then acc
  else
    let c = Util.Growvec.get t.tos (idx - 1) in
    let a =
      if site then { Gmon.a_from = key1; a_self = c.key2; a_count = c.count }
      else { Gmon.a_from = c.key2; a_self = key1; a_count = c.count }
    in
    chain_arcs t ~site key1 c.link (a :: acc)

(* Runs at every epoch boundary, so it visits only the non-empty
   chains and compares arcs by their int fields. *)
let arcs t =
  let site = match t.keying with Site_primary -> true | Callee_primary -> false in
  let out = ref (chain_arcs t ~site spontaneous_from t.spontaneous []) in
  for key1 = 0 to Array.length t.froms - 1 do
    let head = t.froms.(key1) in
    if head <> 0 then out := chain_arcs t ~site key1 head !out
  done;
  List.sort Gmon.compare_arc !out

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
