type t = {
  shape : Gmon.hist; (* h_counts unused; retained for geometry *)
  counts : int array;
  last_pc : int array; (* last sampled pc per bucket + 1; 0 = never hit *)
  mutable enabled : bool;
  mutable ticks : int;
  mutable overflow : int;
  mutable collisions : int;
}

let create ~lowpc ~highpc ~bucket_size =
  let shape = Gmon.make_hist ~lowpc ~highpc ~bucket_size in
  {
    shape;
    counts = Array.make (Array.length shape.h_counts) 0;
    last_pc = Array.make (Array.length shape.h_counts) 0;
    enabled = true;
    ticks = 0;
    overflow = 0;
    collisions = 0;
  }

let enabled t = t.enabled
let enable t = t.enabled <- true
let disable t = t.enabled <- false

let sample t ~pc =
  if t.enabled then
    match Gmon.bucket_of_pc t.shape pc with
    | Some i ->
      t.counts.(i) <- t.counts.(i) + 1;
      t.ticks <- t.ticks + 1;
      (* A collision is a tick that lands in a bucket a *different*
         address already hit: exactly the attribution ambiguity a
         bucket size > 1 introduces. *)
      if t.last_pc.(i) <> 0 && t.last_pc.(i) <> pc + 1 then
        t.collisions <- t.collisions + 1;
      t.last_pc.(i) <- pc + 1
    | None -> t.overflow <- t.overflow + 1

let ticks t = t.ticks

let overflow t = t.overflow

let collisions t = t.collisions

let observe t reg =
  let module M = Obs.Metrics in
  let g name v = M.set (M.gauge reg name) v in
  g "profil.ticks" t.ticks;
  g "profil.overflow" t.overflow;
  g "profil.collisions" t.collisions;
  g "profil.buckets" (Array.length t.counts);
  g "profil.buckets_hit"
    (Array.fold_left (fun n c -> if c > 0 then n + 1 else n) 0 t.counts)

let hist t = { t.shape with h_counts = Array.copy t.counts }

let take_delta t ~base =
  let d = Array.make (Array.length t.counts) 0 in
  for i = 0 to Array.length d - 1 do
    let c = t.counts.(i) in
    d.(i) <- c - base.(i);
    base.(i) <- c
  done;
  d

let reset t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  Array.fill t.last_pc 0 (Array.length t.last_pc) 0;
  t.ticks <- 0;
  t.overflow <- 0;
  t.collisions <- 0
