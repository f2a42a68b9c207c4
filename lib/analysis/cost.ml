module Objfile = Objcode.Objfile
module Instr = Objcode.Instr

type fn = {
  c_id : int;
  c_name : string;
  c_blocks : int;
  c_loops : int;
  c_depth : int;
  c_irreducible : bool;
  c_self : int;
  c_total : int option;
}

type t = { c_funcs : fn array; c_loop_weight : int }

let pow base e =
  let rec go acc e = if e <= 0 then acc else go (acc * base) (e - 1) in
  go 1 e

(* saturating: weights over deep nests overflow otherwise *)
let cap = max_int / 4
let sat n = if n > cap then cap else n
let sat_add a b = sat (a + b)
let sat_mul a b = if a = 0 || b = 0 then 0 else if a > cap / b then cap else a * b

(* the assumed iterations per loop level *)
let loop_weight = 8

let static_estimate ?indirect (cfg : Cfg.t) =
  let o = cfg.Cfg.cfg_obj in
  let indirect = match indirect with Some i -> i | None -> Indirect.analyze o in
  let nfuncs = Array.length cfg.Cfg.cfg_funcs in
  (* per function: dom info, weighted self cost, weighted call sites *)
  let shapes =
    Array.map
      (fun (f : Cfg.func) ->
        if Array.length f.Cfg.fn_blocks = 0 then None
        else begin
          let dom = Dom.compute f in
          let reach = f.Cfg.fn_reachable in
          let self = ref 0 in
          let sites = ref [] in
          Array.iteri
            (fun bi (b : Cfg.block) ->
              if reach.(bi) then begin
                let w = pow loop_weight dom.Dom.d_depth.(bi) in
                for pc = b.Cfg.bb_start to b.Cfg.bb_start + b.Cfg.bb_len - 1 do
                  self := sat_add !self (sat_mul w (Instr.cost o.Objfile.text.(pc)))
                done;
                List.iter (fun pc -> sites := (pc, w) :: !sites) b.Cfg.bb_calls
              end)
            f.Cfg.fn_blocks;
          Some (dom, reach, !self, List.rev !sites)
        end)
      cfg.Cfg.cfg_funcs
  in
  (* total bound by memoized DFS; a cycle poisons everything on or
     above it with None *)
  let memo : int option option array = Array.make nfuncs None in
  let visiting = Array.make nfuncs false in
  let rec total id =
    match memo.(id) with
    | Some v -> v
    | None ->
      if visiting.(id) then None
      else begin
        visiting.(id) <- true;
        let v =
          match shapes.(id) with
          | None -> Some 0
          | Some (_, _, self, sites) ->
            List.fold_left
              (fun acc (pc, w) ->
                match acc with
                | None -> None
                | Some a -> (
                  match Indirect.callees o indirect ~pc with
                  | [] -> acc
                  | ts ->
                    List.fold_left
                      (fun worst t ->
                        match (worst, total t) with
                        | None, _ | _, None -> None
                        | Some x, Some y -> Some (max x (sat_add a (sat_mul w y))))
                      (Some a) ts))
              (Some self) sites
        in
        visiting.(id) <- false;
        memo.(id) <- Some v;
        v
      end
  in
  let funcs =
    Array.mapi
      (fun id (s : Objfile.symbol) ->
        match shapes.(id) with
        | None ->
          {
            c_id = id;
            c_name = s.Objfile.name;
            c_blocks = 0;
            c_loops = 0;
            c_depth = 0;
            c_irreducible = false;
            c_self = 0;
            c_total = Some 0;
          }
        | Some (dom, reach, self, _) ->
          {
            c_id = id;
            c_name = s.Objfile.name;
            c_blocks =
              Array.fold_left (fun n v -> if v then n + 1 else n) 0 reach;
            c_loops = Array.length dom.Dom.d_loops;
            c_depth = Array.fold_left max 0 dom.Dom.d_depth;
            c_irreducible = dom.Dom.d_irreducible;
            c_self = self;
            c_total = total id;
          })
      o.Objfile.symbols
  in
  { c_funcs = funcs; c_loop_weight = loop_weight }

let listing ?measured t =
  let buf = Buffer.create 1024 in
  let funcs =
    List.sort
      (fun a b ->
        match compare b.c_self a.c_self with
        | 0 -> compare a.c_name b.c_name
        | c -> c)
      (Array.to_list t.c_funcs)
  in
  Buffer.add_string buf
    (Printf.sprintf
       "static cost bounds (loop weight %d per nesting level)\n"
       t.c_loop_weight);
  let has_measured = measured <> None in
  Buffer.add_string buf
    (Printf.sprintf "%-20s %6s %5s %5s %12s %12s%s\n" "function" "blocks"
       "loops" "depth" "self-bound" "total-bound"
       (if has_measured then "   self-s  total-s" else ""));
  List.iter
    (fun f ->
      let bound = function
        | None -> "unbounded"
        | Some v -> if v >= cap then ">= cap" else string_of_int v
      in
      let m =
        match measured with
        | None -> ""
        | Some lookup -> (
          match lookup f.c_name with
          | None -> "        -        -"
          | Some (self_s, total_s) ->
            Printf.sprintf " %8.2f %8.2f" self_s total_s)
      in
      Buffer.add_string buf
        (Printf.sprintf "%-20s %6d %5d %5d %12d %12s%s%s\n" f.c_name f.c_blocks
           f.c_loops f.c_depth f.c_self
           (bound f.c_total)
           m
           (if f.c_irreducible then "  (irreducible)" else "")))
    funcs;
  Buffer.contents buf
