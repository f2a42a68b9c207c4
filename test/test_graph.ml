(* Tests for the graph library: digraph operations, Tarjan SCC with
   topological numbering (paper Figures 1-3), condensation, feedback
   arc sets, reachability. *)

open Graphlib

let check_int = Alcotest.(check int)

let trio a b c =
  Alcotest.testable
    (fun ppf (x, y, z) ->
      Format.fprintf ppf "(%a,%a,%a)" (Alcotest.pp a) x (Alcotest.pp b) y
        (Alcotest.pp c) z)
    (fun (x1, y1, z1) (x2, y2, z2) ->
      Alcotest.equal a x1 x2 && Alcotest.equal b y1 y2 && Alcotest.equal c z1 z2)

(* The 10-node call graph of the paper's Figure 1. Node 0 is the root
   at the top; the drawing is reconstructed as a DAG with arcs from
   callers to callees. Exact arc choice does not matter for the
   properties we verify (the figure illustrates a numbering, not a
   specific program). *)
let figure1_arcs =
  [
    (0, 1, 1); (0, 2, 1); (0, 3, 1);
    (1, 4, 1); (1, 5, 1);
    (2, 5, 1); (2, 6, 1);
    (3, 6, 1); (3, 7, 1);
    (4, 8, 1);
    (5, 8, 1); (5, 9, 1);
    (6, 9, 1);
    (7, 9, 1);
  ]

let figure1 () = Digraph.of_arcs ~n:10 figure1_arcs

(* Figure 2: same graph with nodes 3 and 7 mutually recursive. *)
let figure2 () =
  Digraph.of_arcs ~n:10 ((7, 3, 1) :: figure1_arcs)

(* ------------------------------------------------------------------ *)
(* Digraph *)

let test_digraph_basic () =
  let e = Digraph.of_arcs ~n:3 [] in
  check_int "nodes" 3 (Digraph.n_nodes e);
  check_int "no arcs" 0 (Digraph.n_arcs e);
  let g = Digraph.of_arcs ~n:3 [ (0, 1, 2); (1, 2, 0); (0, 1, 3) ] in
  check_int "arc accumulation" 5 (Digraph.arc_count g ~src:0 ~dst:1);
  check_int "zero-count arc exists" 0 (Digraph.arc_count g ~src:1 ~dst:2);
  Alcotest.(check bool) "mem" true (Digraph.mem_arc g ~src:1 ~dst:2);
  check_int "n_arcs" 2 (Digraph.n_arcs g)

(* Removing arcs is building again from the arcs that are kept. *)
let without g removed =
  Digraph.of_arcs ~n:(Digraph.n_nodes g)
    (List.filter (fun (s, d, _) -> not (List.mem (s, d) removed)) (Digraph.arcs g))

let test_digraph_remove () =
  let g = without (Digraph.of_arcs ~n:2 [ (0, 1, 5) ]) [ (0, 1) ] in
  Alcotest.(check bool) "removed" false (Digraph.mem_arc g ~src:0 ~dst:1);
  check_int "n_arcs" 0 (Digraph.n_arcs g);
  (* Removing an absent arc changes nothing. *)
  let h = without g [ (0, 1) ] in
  check_int "still 0" 0 (Digraph.n_arcs h);
  Alcotest.(check bool) "same graph" true (Digraph.equal g h)

let test_digraph_succs_preds () =
  let g = Digraph.of_arcs ~n:4 [ (0, 2, 1); (0, 1, 3); (3, 1, 7) ] in
  Alcotest.(check (list (pair int int))) "succs sorted" [ (1, 3); (2, 1) ]
    (Digraph.succs g 0);
  Alcotest.(check (list (pair int int))) "preds sorted" [ (0, 3); (3, 7) ]
    (Digraph.preds g 1);
  check_int "out_degree" 2 (Digraph.out_degree g 0);
  check_int "in_degree" 2 (Digraph.in_degree g 1)

let test_digraph_bounds () =
  Alcotest.check_raises "src out of range"
    (Invalid_argument "Digraph: node 2 out of range [0,2)") (fun () ->
      ignore (Digraph.of_arcs ~n:2 [ (2, 0, 1) ]));
  Alcotest.check_raises "dst out of range"
    (Invalid_argument "Digraph: node -1 out of range [0,2)") (fun () ->
      ignore (Digraph.of_arcs ~n:2 [ (0, 1, 1); (0, -1, 1) ]));
  Alcotest.check_raises "negative count"
    (Invalid_argument "Digraph.of_arcs: negative count") (fun () ->
      ignore (Digraph.of_arcs ~n:2 [ (0, 1, -1) ]));
  Alcotest.check_raises "negative size"
    (Invalid_argument "Digraph.of_arcs: negative size") (fun () ->
      ignore (Digraph.of_arcs ~n:(-1) []))

let test_digraph_reverse () =
  let g = Digraph.of_arcs ~n:3 [ (0, 1, 2); (1, 2, 3) ] in
  let r = Digraph.reverse g in
  Alcotest.(check (list (trio int int int)))
    "reversed arcs" [ (1, 0, 2); (2, 1, 3) ] (Digraph.arcs r)

let test_digraph_copy_independent () =
  let g = Digraph.of_arcs ~n:2 [ (0, 1, 1) ] in
  let h = without g [ (0, 1) ] in
  Alcotest.(check bool) "original intact" true (Digraph.mem_arc g ~src:0 ~dst:1);
  Alcotest.(check bool) "copies equal iff same arcs" false (Digraph.equal g h);
  Alcotest.(check bool) "a rebuild from the same arcs is equal" true
    (Digraph.equal g (Digraph.of_arcs ~n:2 (Digraph.arcs g)))

(* ------------------------------------------------------------------ *)
(* Tarjan on the paper's figures *)

let arcs_go_higher_to_lower g num =
  List.for_all (fun (s, d, _) -> s = d || num.(s) > num.(d)) (Digraph.arcs g)

let test_fig1_topo () =
  let g = figure1 () in
  match Tarjan.topo_numbers g with
  | None -> Alcotest.fail "figure 1 graph should be a DAG"
  | Some num ->
    Alcotest.(check bool) "arcs higher->lower" true (arcs_go_higher_to_lower g num);
    (* Numbers are a permutation of 0..9. *)
    let sorted = Array.copy num in
    Array.sort compare sorted;
    Alcotest.(check (array int)) "permutation" (Array.init 10 Fun.id) sorted;
    (* The root gets the highest number; leaves lowest. *)
    check_int "root highest" 9 num.(0)

let test_fig2_cycle_found () =
  let g = figure2 () in
  let r = Tarjan.scc g in
  Alcotest.(check bool) "3 and 7 together" true (Tarjan.in_same_component r 3 7);
  check_int "one nontrivial comp: 9 components" 9 r.n_components;
  Alcotest.(check (list int)) "members" [ 3; 7 ]
    r.members.(r.component.(3));
  Alcotest.(check bool) "not a DAG" false (Tarjan.is_dag g)

let test_fig3_collapse () =
  let g = figure2 () in
  let c = Condense.condense g in
  check_int "9 nodes after collapse" 9 (Digraph.n_nodes c.graph);
  Alcotest.(check bool) "condensation is a DAG" true (Tarjan.is_dag c.graph);
  (match Tarjan.topo_numbers c.graph with
  | None -> Alcotest.fail "condensation must be a DAG"
  | Some num ->
    Alcotest.(check bool) "condensed numbering property" true
      (arcs_go_higher_to_lower c.graph num));
  (* The intra-cycle arcs 3->7 and 7->3 are reported, not condensed. *)
  Alcotest.(check (list (trio int int int)))
    "internal arcs" [ (3, 7, 1); (7, 3, 1) ] c.internal_arcs;
  Alcotest.(check bool) "cycle component flagged" true
    (Condense.is_cycle c (Condense.component_of c 3))

let test_self_arc_not_dag () =
  let g = Digraph.of_arcs ~n:2 [ (0, 1, 1); (1, 1, 4) ] in
  Alcotest.(check bool) "self arc breaks DAG" false (Tarjan.is_dag g);
  Alcotest.(check (option (array int))) "topo_numbers None" None (Tarjan.topo_numbers g);
  (* But the condensation drops it into internal arcs. *)
  let c = Condense.condense g in
  Alcotest.(check (list (trio int int int))) "self arc internal" [ (1, 1, 4) ]
    c.internal_arcs;
  Alcotest.(check bool) "single node with self arc is a cycle" true
    (Condense.is_cycle c (Condense.component_of c 1))

let test_scc_chain_of_cycles () =
  (* 0 <-> 1 -> 2 <-> 3 -> 4 : two 2-cycles and a sink. *)
  let g =
    Digraph.of_arcs ~n:5
      [ (0, 1, 1); (1, 0, 1); (1, 2, 1); (2, 3, 1); (3, 2, 1); (3, 4, 1) ]
  in
  let r = Tarjan.scc g in
  check_int "three components" 3 r.n_components;
  Alcotest.(check bool) "0,1 together" true (Tarjan.in_same_component r 0 1);
  Alcotest.(check bool) "2,3 together" true (Tarjan.in_same_component r 2 3);
  Alcotest.(check bool) "1,2 apart" false (Tarjan.in_same_component r 1 2);
  (* Component numbering: leaves lowest. {4} < {2,3} < {0,1}. *)
  Alcotest.(check bool) "sink lowest" true
    (r.component.(4) < r.component.(2) && r.component.(2) < r.component.(0))

let test_scc_empty_and_singleton () =
  let g0 = Digraph.of_arcs ~n:0 [] in
  check_int "empty graph" 0 (Tarjan.scc g0).n_components;
  let g1 = Digraph.of_arcs ~n:1 [] in
  let r = (Tarjan.scc g1) in
  check_int "singleton" 1 r.n_components;
  Alcotest.(check bool) "trivially a DAG" true (Tarjan.is_dag g1)

let test_scc_deep_path_no_overflow () =
  (* A 200k-node path; a recursive Tarjan would blow the OS stack. *)
  let n = 200_000 in
  let g = Digraph.of_arcs ~n (List.init (n - 1) (fun i -> (i, i + 1, 1))) in
  let r = Tarjan.scc g in
  check_int "all singletons" n r.n_components

(* ------------------------------------------------------------------ *)
(* Property tests: SCC vs brute force, numbering invariant *)

let random_graph_gen =
  QCheck.Gen.(
    sized_size (int_range 1 12) (fun n ->
        let* density = int_range 0 (n * n) in
        let* arcs =
          list_size (return density)
            (let* s = int_range 0 (n - 1) in
             let* d = int_range 0 (n - 1) in
             let* c = int_range 0 5 in
             return (s, d, c))
        in
        return (n, arcs)))

let random_graph_arb =
  QCheck.make ~print:(fun (n, arcs) ->
      Printf.sprintf "n=%d arcs=[%s]" n
        (String.concat ";"
           (List.map (fun (s, d, c) -> Printf.sprintf "(%d,%d,%d)" s d c) arcs)))
    random_graph_gen

let brute_same_component g u v =
  let fwd = Reach.forward g [ u ] and bwd = Reach.backward g [ u ] in
  fwd.(v) && bwd.(v)

(* of_arcs against the arc list it was given: each (src, dst) pair once
   with its counts summed, the slices sorted, and each node's
   successors and predecessors describing the same arcs. *)
let of_arcs_agrees_with_list =
  QCheck.Test.make
    ~name:"of_arcs sums parallel arcs; succs and preds are sorted inverses"
    ~count:300 random_graph_arb (fun (n, arcs) ->
      let g = Digraph.of_arcs ~n arcs in
      let sum s d =
        List.fold_left (fun a (s', d', c) -> if s' = s && d' = d then a + c else a) 0 arcs
      in
      let present s d = List.exists (fun (s', d', _) -> s' = s && d' = d) arcs in
      let expected =
        List.sort_uniq compare (List.map (fun (s, d, _) -> (s, d)) arcs)
        |> List.map (fun (s, d) -> (s, d, sum s d))
      in
      let ascending l = List.sort_uniq compare (List.map fst l) = List.map fst l in
      let from u = List.filter_map (fun (s, d, c) -> if s = u then Some (d, c) else None)
      and into u = List.filter_map (fun (s, d, c) -> if d = u then Some (s, c) else None) in
      let nodes = List.init n Fun.id in
      let fail what = QCheck.Test.fail_reportf "%s disagrees" what in
      (Digraph.arcs g = expected || fail "arcs")
      && (Digraph.n_arcs g = List.length expected || fail "n_arcs")
      && List.for_all
           (fun u ->
             let succs = Digraph.succs g u and preds = Digraph.preds g u in
             (ascending succs && ascending preds || fail "slice order")
             && (succs = from u expected || fail "succs")
             && (preds = into u expected || fail "preds")
             && (Digraph.out_degree g u = List.length succs || fail "out_degree")
             && (Digraph.in_degree g u = List.length preds || fail "in_degree"))
           nodes
      && List.for_all
           (fun s ->
             List.for_all
               (fun d ->
                 (Digraph.mem_arc g ~src:s ~dst:d = present s d || fail "mem_arc")
                 && (Digraph.arc_count g ~src:s ~dst:d = sum s d || fail "arc_count"))
               nodes)
           nodes)

let scc_matches_bruteforce =
  QCheck.Test.make ~name:"Tarjan SCC matches reachability definition" ~count:300
    random_graph_arb (fun (n, arcs) ->
      let g = Digraph.of_arcs ~n arcs in
      let r = Tarjan.scc g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if Tarjan.in_same_component r u v <> brute_same_component g u v then
            ok := false
        done
      done;
      !ok)

let condensation_numbering_invariant =
  QCheck.Test.make
    ~name:"inter-component arcs go from higher to lower component numbers"
    ~count:300 random_graph_arb (fun (n, arcs) ->
      let g = Digraph.of_arcs ~n arcs in
      let r = Tarjan.scc g in
      List.for_all
        (fun (s, d, _) ->
          r.component.(s) = r.component.(d) || r.component.(s) > r.component.(d))
        (Digraph.arcs g))

let condensation_is_dag =
  QCheck.Test.make ~name:"condensation is always a DAG" ~count:300
    random_graph_arb (fun (n, arcs) ->
      let g = Digraph.of_arcs ~n arcs in
      let c = Condense.condense g in
      Tarjan.is_dag c.graph)

let members_partition =
  QCheck.Test.make ~name:"SCC members partition the node set" ~count:300
    random_graph_arb (fun (n, arcs) ->
      let g = Digraph.of_arcs ~n arcs in
      let r = Tarjan.scc g in
      let all = Array.to_list r.members |> List.concat |> List.sort compare in
      all = List.init n Fun.id)

(* ------------------------------------------------------------------ *)
(* Feedback arc sets *)

let test_feedback_trivial () =
  let g = figure1 () in
  Alcotest.(check (option (list (pair int int)))) "DAG needs no removal"
    (Some []) (Feedback.exact g ~bound:0);
  Alcotest.(check (list (pair int int))) "greedy on DAG" [] (Feedback.greedy g ~bound:5)

let test_feedback_two_cycle () =
  let g = figure2 () in
  (match Feedback.exact g ~bound:1 with
  | Some [ arc ] ->
    Alcotest.(check bool) "one of the two cycle arcs" true
      (arc = (3, 7) || arc = (7, 3));
    Alcotest.(check bool) "acyclic after" true (Feedback.acyclic_after g [ arc ])
  | _ -> Alcotest.fail "expected a single-arc solution");
  let removed = Feedback.greedy g ~bound:5 in
  check_int "greedy removes one arc" 1 (List.length removed);
  Alcotest.(check bool) "greedy acyclic" true (Feedback.acyclic_after g removed)

let test_feedback_prefers_low_count () =
  (* Cycle closed by a count-1 arc and a count-100 arc: the heuristic
     should drop the cheap one, as the kernel profiles suggested. *)
  let g = Digraph.of_arcs ~n:2 [ (0, 1, 100); (1, 0, 1) ] in
  Alcotest.(check (list (pair int int))) "greedy drops count-1 arc" [ (1, 0) ]
    (Feedback.greedy g ~bound:5);
  Alcotest.(check (option (list (pair int int)))) "exact drops count-1 arc"
    (Some [ (1, 0) ]) (Feedback.exact g ~bound:1)

let test_feedback_bound_respected () =
  (* Two independent 2-cycles need two removals; bound 1 fails. *)
  let g = Digraph.of_arcs ~n:4 [ (0, 1, 1); (1, 0, 1); (2, 3, 1); (3, 2, 1) ] in
  Alcotest.(check (option (list (pair int int)))) "bound too small" None
    (Feedback.exact g ~bound:1);
  (match Feedback.exact g ~bound:2 with
  | Some arcs ->
    check_int "two arcs" 2 (List.length arcs);
    Alcotest.(check bool) "acyclic" true (Feedback.acyclic_after g arcs)
  | None -> Alcotest.fail "bound 2 should suffice");
  let greedy1 = Feedback.greedy g ~bound:1 in
  check_int "greedy stops at bound" 1 (List.length greedy1);
  Alcotest.(check bool) "still cyclic" false (Feedback.acyclic_after g greedy1)

let test_feedback_ignores_self_arcs () =
  let g = Digraph.of_arcs ~n:2 [ (0, 0, 9); (0, 1, 1) ] in
  Alcotest.(check (option (list (pair int int)))) "self arcs need no removal"
    (Some []) (Feedback.exact g ~bound:2);
  Alcotest.(check (list (pair int int))) "greedy ignores self arcs" []
    (Feedback.greedy g ~bound:2)

let greedy_breaks_all_cycles =
  QCheck.Test.make ~name:"greedy with ample bound yields acyclic graph" ~count:300
    random_graph_arb (fun (n, arcs) ->
      let g = Digraph.of_arcs ~n arcs in
      let removed = Feedback.greedy g ~bound:(Digraph.n_arcs g + 1) in
      Feedback.acyclic_after g removed)

let exact_result_is_acyclic =
  QCheck.Test.make ~name:"exact solutions are acyclic and within bound" ~count:100
    random_graph_arb (fun (n, arcs) ->
      let g = Digraph.of_arcs ~n arcs in
      match Feedback.exact g ~bound:2 with
      | None -> true
      | Some removed ->
        List.length removed <= 2 && Feedback.acyclic_after g removed)

(* ------------------------------------------------------------------ *)
(* Reachability and filtering *)

let test_reach_forward_backward () =
  let g = figure1 () in
  let fwd = Reach.forward g [ 1 ] in
  Alcotest.(check bool) "1 reaches 8" true fwd.(8);
  Alcotest.(check bool) "1 reaches 9 via 5" true fwd.(9);
  Alcotest.(check bool) "1 does not reach 6" false fwd.(6);
  let bwd = Reach.backward g [ 8 ] in
  Alcotest.(check bool) "8 reached from 0" true bwd.(0);
  Alcotest.(check bool) "8 not reached from 6" false bwd.(6)

let test_reach_between () =
  let g = figure1 () in
  let mid = Reach.between g [ 5 ] in
  Alcotest.(check bool) "ancestors kept" true (mid.(0) && mid.(1) && mid.(2));
  Alcotest.(check bool) "descendants kept" true (mid.(8) && mid.(9));
  Alcotest.(check bool) "unrelated dropped" false mid.(4)

let test_reach_restrict () =
  let g = figure1 () in
  let keep = Reach.between g [ 5 ] in
  let h = Reach.restrict g ~keep in
  Alcotest.(check bool) "kept arc" true (Digraph.mem_arc h ~src:0 ~dst:1);
  Alcotest.(check bool) "dropped arc to non-kept node" false
    (Digraph.mem_arc h ~src:1 ~dst:4);
  check_int "same node count" 10 (Digraph.n_nodes h)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "graph"
    [
      ( "digraph",
        [
          Alcotest.test_case "basic" `Quick test_digraph_basic;
          Alcotest.test_case "remove" `Quick test_digraph_remove;
          Alcotest.test_case "succs/preds" `Quick test_digraph_succs_preds;
          Alcotest.test_case "bounds" `Quick test_digraph_bounds;
          Alcotest.test_case "reverse" `Quick test_digraph_reverse;
          Alcotest.test_case "copy independence" `Quick test_digraph_copy_independent;
          qt of_arcs_agrees_with_list;
        ] );
      ( "tarjan",
        [
          Alcotest.test_case "figure 1 topological numbering" `Quick test_fig1_topo;
          Alcotest.test_case "figure 2 cycle discovery" `Quick test_fig2_cycle_found;
          Alcotest.test_case "figure 3 collapse" `Quick test_fig3_collapse;
          Alcotest.test_case "self arc" `Quick test_self_arc_not_dag;
          Alcotest.test_case "chain of cycles" `Quick test_scc_chain_of_cycles;
          Alcotest.test_case "empty/singleton" `Quick test_scc_empty_and_singleton;
          Alcotest.test_case "deep path (iterative)" `Slow test_scc_deep_path_no_overflow;
          qt scc_matches_bruteforce;
          qt condensation_numbering_invariant;
          qt condensation_is_dag;
          qt members_partition;
        ] );
      ( "feedback",
        [
          Alcotest.test_case "trivial" `Quick test_feedback_trivial;
          Alcotest.test_case "two cycle" `Quick test_feedback_two_cycle;
          Alcotest.test_case "prefers low counts" `Quick test_feedback_prefers_low_count;
          Alcotest.test_case "bound respected" `Quick test_feedback_bound_respected;
          Alcotest.test_case "ignores self arcs" `Quick test_feedback_ignores_self_arcs;
          qt greedy_breaks_all_cycles;
          qt exact_result_is_acyclic;
        ] );
      ( "reach",
        [
          Alcotest.test_case "forward/backward" `Quick test_reach_forward_backward;
          Alcotest.test_case "between" `Quick test_reach_between;
          Alcotest.test_case "restrict" `Quick test_reach_restrict;
        ] );
    ]
