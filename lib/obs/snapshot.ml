(* An immutable, serializable capture of a metrics registry.

   The registry itself is live state; a snapshot is the unit a client
   can hold, ship, store, and subtract. Its JSON form is the one
   metrics format: --obs-metrics files, QUERY metrics answers,
   telemetry records and proftop diffs are all to_json, and of_json
   closes the loop: anything the obs layer wrote can be read back and
   diffed. *)

type hist = {
  h_count : int;
  h_sum : int;
  h_max : int;
  h_buckets : (int * int) list;  (* (bucket index, count), ascending, > 0 *)
}

type t = {
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : (string * hist) list;
}

let empty = { counters = []; gauges = []; histograms = [] }

let of_registry reg =
  let counters = ref [] and gauges = ref [] and hists = ref [] in
  List.iter
    (fun (name, view) ->
      match (view : Metrics.view) with
      | Metrics.View_counter v -> counters := (name, v) :: !counters
      | Metrics.View_gauge v -> gauges := (name, v) :: !gauges
      | Metrics.View_histogram { v_count; v_sum; v_max; v_buckets } ->
        let buckets = ref [] in
        Array.iteri
          (fun b c -> if c > 0 then buckets := (b, c) :: !buckets)
          v_buckets;
        hists :=
          ( name,
            {
              h_count = v_count;
              h_sum = v_sum;
              h_max = v_max;
              h_buckets = List.rev !buckets;
            } )
          :: !hists)
    (Metrics.views reg);
  {
    counters = List.rev !counters;
    gauges = List.rev !gauges;
    histograms = List.rev !hists;
  }

let find_counter t name = List.assoc_opt name t.counters
let find_gauge t name = List.assoc_opt name t.gauges
let find_hist t name = List.assoc_opt name t.histograms

(* --- JSON, both directions --------------------------------------------- *)

(* Fields in the snapshot's order, which of_registry takes name-sorted
   from the registry; buckets carry inclusive lo/hi, hi = -1 for the
   unbounded top bucket. *)
let to_json t =
  let buf = Buffer.create 1024 in
  Jsonbuf.obj buf
    [
      ( "counters",
        fun () ->
          Jsonbuf.obj buf
            (List.map (fun (n, v) -> (n, fun () -> Jsonbuf.int buf v)) t.counters)
      );
      ( "gauges",
        fun () ->
          Jsonbuf.obj buf
            (List.map (fun (n, v) -> (n, fun () -> Jsonbuf.int buf v)) t.gauges)
      );
      ( "histograms",
        fun () ->
          Jsonbuf.obj buf
            (List.map
               (fun (n, h) ->
                 ( n,
                   fun () ->
                     Jsonbuf.obj buf
                       [
                         ("count", fun () -> Jsonbuf.int buf h.h_count);
                         ("sum", fun () -> Jsonbuf.int buf h.h_sum);
                         ("max", fun () -> Jsonbuf.int buf h.h_max);
                         ( "buckets",
                           fun () ->
                             Jsonbuf.arr buf h.h_buckets (fun (b, c) ->
                                 let lo, hi = Metrics.hist_bucket_bounds b in
                                 Jsonbuf.obj buf
                                   [
                                     ("lo", fun () -> Jsonbuf.int buf lo);
                                     ( "hi",
                                       fun () ->
                                         Jsonbuf.int buf
                                           (if hi = max_int then -1 else hi) );
                                     ("count", fun () -> Jsonbuf.int buf c);
                                   ]) );
                       ] ))
               t.histograms) );
    ];
  Buffer.contents buf

let of_value v =
  let ( let* ) = Result.bind in
  let int_fields section v =
    match Jsonin.to_obj v with
    | None -> Error (Printf.sprintf "%S is not an object" section)
    | Some fields ->
      List.fold_left
        (fun acc (name, v) ->
          let* acc = acc in
          match Jsonin.to_int v with
          | Some i -> Ok ((name, i) :: acc)
          | None -> Error (Printf.sprintf "%s %S is not an integer" section name))
        (Ok []) fields
      |> Result.map List.rev
  in
  let bucket name v =
    match
      ( Option.bind (Jsonin.member "lo" v) Jsonin.to_int,
        Option.bind (Jsonin.member "hi" v) Jsonin.to_int,
        Option.bind (Jsonin.member "count" v) Jsonin.to_int )
    with
    | Some lo, Some hi, Some count ->
      (* the bucket index is recoverable from its lower bound: bucket 0
         starts at 0, bucket b >= 1 at 2^(b-1) *)
      let b = Metrics.hist_bucket_of lo in
      let want_lo, want_hi = Metrics.hist_bucket_bounds b in
      if lo <> want_lo || (hi <> want_hi && not (hi = -1 && want_hi = max_int))
      then
        Error
          (Printf.sprintf "histogram %S: bucket [%d,%d] is not a log2 bucket"
             name lo hi)
      else Ok (b, count)
    | _ -> Error (Printf.sprintf "histogram %S: malformed bucket" name)
  in
  let histogram (name, v) =
    match
      ( Option.bind (Jsonin.member "count" v) Jsonin.to_int,
        Option.bind (Jsonin.member "sum" v) Jsonin.to_int,
        Option.bind (Jsonin.member "max" v) Jsonin.to_int,
        Option.bind (Jsonin.member "buckets" v) Jsonin.to_list )
    with
    | Some count, Some sum, Some max, Some buckets ->
      let* bs =
        List.fold_left
          (fun acc bv ->
            let* acc = acc in
            let* b = bucket name bv in
            Ok (b :: acc))
          (Ok []) buckets
      in
      Ok
        ( name,
          { h_count = count; h_sum = sum; h_max = max; h_buckets = List.rev bs }
        )
    | _ -> Error (Printf.sprintf "histogram %S: missing count/sum/max/buckets" name)
  in
  match
    ( Jsonin.member "counters" v,
      Jsonin.member "gauges" v,
      Jsonin.member "histograms" v )
  with
  | Some cs, Some gs, Some hs ->
    let* counters = int_fields "counters" cs in
    let* gauges = int_fields "gauges" gs in
    let* hfields =
      match Jsonin.to_obj hs with
      | Some fields -> Ok fields
      | None -> Error "\"histograms\" is not an object"
    in
    let* histograms =
      List.fold_left
        (fun acc f ->
          let* acc = acc in
          let* h = histogram f in
          Ok (h :: acc))
        (Ok []) hfields
      |> Result.map List.rev
    in
    Ok { counters; gauges; histograms }
  | _ -> Error "not a metrics snapshot (missing counters/gauges/histograms)"

let of_json s = Result.bind (Jsonin.parse s) of_value

let save reg path =
  let write oc = output_string oc (to_json (of_registry reg)) in
  (* /dev/stdout via open_out would write through a second fd whose
     offset races the buffered report already on stdout; route it (and
     "-") through the stdout channel instead. *)
  if path = "-" || path = "/dev/stdout" then begin
    write stdout;
    flush stdout
  end
  else
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc)

(* --- delta arithmetic --------------------------------------------------- *)

(* What changed between two polls. Counter and histogram entries are
   subtracted (a name missing from [before] counts from zero — a
   counter registered between the polls); gauges are last-write-wins,
   so the diff simply carries [after]'s value. The result covers
   [after]'s name set: an instrument that vanished (registry reset)
   is dropped rather than reported as a negative ghost. *)
let diff ~before ~after =
  let counters =
    List.map
      (fun (n, v) ->
        (n, v - Option.value ~default:0 (find_counter before n)))
      after.counters
  in
  let histograms =
    List.map
      (fun (n, h) ->
        match find_hist before n with
        | None -> (n, h)
        | Some b ->
          let rec sub bs hs =
            match (bs, hs) with
            | [], hs -> hs
            | _, [] -> []  (* a bucket drained: registry reset; drop it *)
            | (bb, bc) :: brest, (hb, hc) :: hrest ->
              if hb < bb then (hb, hc) :: sub bs hrest
              else if hb > bb then sub brest hs
              else
                let d = hc - bc in
                if d > 0 then (hb, d) :: sub brest hrest else sub brest hrest
          in
          ( n,
            {
              h_count = h.h_count - b.h_count;
              h_sum = h.h_sum - b.h_sum;
              (* the window's max is unknowable from cumulative state:
                 report the cumulative max when the window saw samples *)
              h_max = (if h.h_count > b.h_count then h.h_max else 0);
              h_buckets = sub b.h_buckets h.h_buckets;
            } ))
      after.histograms
  in
  { counters; gauges = after.gauges; histograms }

let rates ~elapsed t =
  if elapsed <= 0.0 then []
  else List.map (fun (n, v) -> (n, float_of_int v /. elapsed)) t.counters

let monotonic_violations ~before ~after =
  List.filter_map
    (fun (n, v) ->
      match find_counter before n with
      | Some b when v < b -> Some (n, b, v)
      | _ -> None)
    after.counters
  @ List.filter_map
      (fun (n, h) ->
        match find_hist before n with
        | Some b when h.h_count < b.h_count ->
          Some (n ^ ".count", b.h_count, h.h_count)
        | _ -> None)
      after.histograms

(* --- quantiles from log2 buckets --------------------------------------- *)

(* An estimate, honest about its resolution: find the bucket holding
   the q-th sample and interpolate linearly inside its [lo, hi] range.
   The unbounded top bucket is clamped to the observed max. Exact
   enough for a live monitor — the bucket bounds themselves bound the
   error to a factor of two. *)
let hist_quantile h q =
  if h.h_count <= 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let want = q *. float_of_int h.h_count in
    let rec locate seen = function
      | [] -> float_of_int h.h_max
      | (b, c) :: rest ->
        let seen' = seen + c in
        if float_of_int seen' >= want || rest = [] then begin
          let lo, hi = Metrics.hist_bucket_bounds b in
          let hi = if hi = max_int then max lo h.h_max else hi in
          let inside =
            if c = 0 then 0.0
            else (want -. float_of_int seen) /. float_of_int c
          in
          float_of_int lo
          +. (Float.max 0.0 (Float.min 1.0 inside) *. float_of_int (hi - lo))
        end
        else locate seen' rest
    in
    locate 0 h.h_buckets
  end
