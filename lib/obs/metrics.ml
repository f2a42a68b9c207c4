(* The metrics registry: named counters, gauges, and fixed-log2-bucket
   histograms, with a human-readable dump (the JSON form is
   Snapshot.to_json over Snapshot.of_registry). One
   process-wide [default] registry serves the common case (the gmon
   byte counters, the CLI exporters); components that snapshot their
   own state publish into whatever registry they are handed. *)

let n_hist_buckets = 32

(* Bucket 0 collects non-positive values; bucket b >= 1 covers
   [2^(b-1), 2^b). The top bucket absorbs everything larger. *)
let hist_bucket_of v =
  if v <= 0 then 0
  else begin
    let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
    min (n_hist_buckets - 1) (bits 0 v)
  end

let hist_bucket_bounds b =
  if b = 0 then (0, 0)
  else if b = n_hist_buckets - 1 then (1 lsl (b - 1), max_int)
  else (1 lsl (b - 1), (1 lsl b) - 1)

type counter = { mutable c_value : int }

type gauge = { mutable g_value : int }

type histogram = {
  h_buckets : int array;
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_max : int;
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type t = {
  instruments : (string, instrument * string) Hashtbl.t; (* name -> (inst, help) *)
}

let create () = { instruments = Hashtbl.create 32 }

let default = create ()

let describe = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let register t name help fresh select =
  match Hashtbl.find_opt t.instruments name with
  | Some (inst, _) -> (
    match select inst with
    | Some x -> x
    | None ->
      invalid_arg
        (Printf.sprintf "Obs.Metrics: %s already registered as a %s" name
           (describe inst)))
  | None ->
    let inst, x = fresh () in
    Hashtbl.replace t.instruments name (inst, Option.value ~default:"" help);
    x

let counter t ?help name =
  register t name help
    (fun () ->
      let c = { c_value = 0 } in
      (Counter c, c))
    (function Counter c -> Some c | _ -> None)

let gauge t ?help name =
  register t name help
    (fun () ->
      let g = { g_value = 0 } in
      (Gauge g, g))
    (function Gauge g -> Some g | _ -> None)

let histogram t ?help name =
  register t name help
    (fun () ->
      let h =
        {
          h_buckets = Array.make n_hist_buckets 0;
          h_count = 0;
          h_sum = 0;
          h_max = 0;
        }
      in
      (Histogram h, h))
    (function Histogram h -> Some h | _ -> None)

let incr ?(by = 1) c = c.c_value <- c.c_value + by

let counter_value c = c.c_value

let set g v = g.g_value <- v

let gauge_value g = g.g_value

let observe h v =
  h.h_buckets.(hist_bucket_of v) <- h.h_buckets.(hist_bucket_of v) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  if v > h.h_max then h.h_max <- v

let set_snapshot h ~buckets ~count ~sum ~max =
  if Array.length buckets <> n_hist_buckets then
    invalid_arg "Obs.Metrics.set_snapshot: wrong bucket count";
  Array.blit buckets 0 h.h_buckets 0 n_hist_buckets;
  h.h_count <- count;
  h.h_sum <- sum;
  h.h_max <- max

let hist_count h = h.h_count
let hist_sum h = h.h_sum
let hist_max h = h.h_max
let hist_buckets h = Array.copy h.h_buckets

let find_counter t name =
  match Hashtbl.find_opt t.instruments name with
  | Some (Counter c, _) -> Some c.c_value
  | _ -> None

let find_gauge t name =
  match Hashtbl.find_opt t.instruments name with
  | Some (Gauge g, _) -> Some g.g_value
  | _ -> None

let find_histogram t name =
  match Hashtbl.find_opt t.instruments name with
  | Some (Histogram h, _) -> Some h
  | _ -> None

let reset t =
  Hashtbl.iter
    (fun _ (inst, _) ->
      match inst with
      | Counter c -> c.c_value <- 0
      | Gauge g -> g.g_value <- 0
      | Histogram h ->
        Array.fill h.h_buckets 0 n_hist_buckets 0;
        h.h_count <- 0;
        h.h_sum <- 0;
        h.h_max <- 0)
    t.instruments

let sorted t =
  Hashtbl.fold (fun name (inst, help) acc -> (name, inst, help) :: acc) t.instruments []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

type view =
  | View_counter of int
  | View_gauge of int
  | View_histogram of { v_count : int; v_sum : int; v_max : int; v_buckets : int array }

let views t =
  List.map
    (fun (name, inst, _) ->
      match inst with
      | Counter c -> (name, View_counter c.c_value)
      | Gauge g -> (name, View_gauge g.g_value)
      | Histogram h ->
        ( name,
          View_histogram
            {
              v_count = h.h_count;
              v_sum = h.h_sum;
              v_max = h.h_max;
              v_buckets = Array.copy h.h_buckets;
            } ))
    (sorted t)

let dump t =
  let buf = Buffer.create 1024 in
  let width =
    List.fold_left (fun w (n, _, _) -> max w (String.length n)) 0 (sorted t)
  in
  List.iter
    (fun (name, inst, help) ->
      let pad = String.make (max 1 (width - String.length name + 2)) ' ' in
      (match inst with
      | Counter c ->
        Buffer.add_string buf (Printf.sprintf "counter  %s%s%d" name pad c.c_value)
      | Gauge g ->
        Buffer.add_string buf (Printf.sprintf "gauge    %s%s%d" name pad g.g_value)
      | Histogram h ->
        Buffer.add_string buf
          (Printf.sprintf "hist     %s%scount=%d sum=%d max=%d" name pad h.h_count
             h.h_sum h.h_max);
        Array.iteri
          (fun b n ->
            if n > 0 then begin
              let lo, hi = hist_bucket_bounds b in
              let range =
                if b = 0 then "        <=0"
                else if hi = max_int then Printf.sprintf "%9d..." lo
                else if lo = hi then Printf.sprintf "%11d" lo
                else Printf.sprintf "%5d..%4d" lo hi
              in
              Buffer.add_string buf (Printf.sprintf "\n           %s  %d" range n)
            end)
          h.h_buckets);
      if help <> "" then Buffer.add_string buf ("    # " ^ help);
      Buffer.add_char buf '\n')
    (sorted t);
  Buffer.contents buf
