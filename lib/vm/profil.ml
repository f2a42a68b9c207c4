type t = {
  h : Gmon.hist; (* the live histogram: ticks bump its counts in place *)
  last_pc : int array; (* last sampled pc per bucket + 1; 0 = never hit *)
  mutable enabled : bool;
  mutable ticks : int;
  mutable overflow : int;
  mutable collisions : int;
}

let create ~lowpc ~highpc ~bucket_size =
  let h = Gmon.make_hist ~lowpc ~highpc ~bucket_size in
  {
    h;
    last_pc = Array.make (Array.length h.h_counts) 0;
    enabled = true;
    ticks = 0;
    overflow = 0;
    collisions = 0;
  }

let enabled t = t.enabled
let enable t = t.enabled <- true
let disable t = t.enabled <- false

(* The bucket is computed here, not by Gmon.bucket_of_pc, so a tick
   allocates no option. *)
let sample t ~pc =
  if t.enabled then begin
    let h = t.h in
    if pc < h.h_lowpc || pc >= h.h_highpc then t.overflow <- t.overflow + 1
    else begin
      let i = (pc - h.h_lowpc) / h.h_bucket_size in
      h.h_counts.(i) <- h.h_counts.(i) + 1;
      t.ticks <- t.ticks + 1;
      (* A collision is a tick that lands in a bucket a *different*
         address already hit: exactly the attribution ambiguity a
         bucket size > 1 introduces. *)
      if t.last_pc.(i) <> 0 && t.last_pc.(i) <> pc + 1 then
        t.collisions <- t.collisions + 1;
      t.last_pc.(i) <- pc + 1
    end
  end

let ticks t = t.ticks

let overflow t = t.overflow

let collisions t = t.collisions

let observe t reg =
  let module M = Obs.Metrics in
  let g name v = M.set (M.gauge reg name) v in
  g "profil.ticks" t.ticks;
  g "profil.overflow" t.overflow;
  g "profil.collisions" t.collisions;
  g "profil.buckets" (Array.length t.h.h_counts);
  g "profil.buckets_hit"
    (Array.fold_left (fun n c -> if c > 0 then n + 1 else n) 0 t.h.h_counts)

let hist t = { t.h with h_counts = Array.copy t.h.h_counts }

let take_delta t ~base =
  let counts = t.h.h_counts in
  let d = Array.make (Array.length counts) 0 in
  for i = 0 to Array.length d - 1 do
    let c = counts.(i) in
    d.(i) <- c - base.(i);
    base.(i) <- c
  done;
  d

let reset t =
  Array.fill t.h.h_counts 0 (Array.length t.h.h_counts) 0;
  Array.fill t.last_pc 0 (Array.length t.last_pc) 0;
  t.ticks <- 0;
  t.overflow <- 0;
  t.collisions <- 0
