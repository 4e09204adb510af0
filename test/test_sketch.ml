(* The multi-family sketch platform: the two new families (landmark,
   bottom-k ADS) against their sequential references, their estimator
   guarantees against exact distances, cross-backend byte-equality,
   and the shared flat container's validation. Snapshot v2 round-trip
   tests live here too (the store is family-polymorphic now). *)

module Rng = Ds_util.Rng
module Graph = Ds_graph.Graph
module Dist = Ds_graph.Dist
module Apsp = Ds_graph.Apsp
module Plane = Ds_congest.Plane
module Metrics = Ds_congest.Metrics
module Label = Ds_core.Label
module Family = Ds_sketch.Family
module Sketch = Ds_sketch.Sketch
module Landmark = Ds_sketch.Landmark
module Bottomk = Ds_sketch.Bottomk
module Build = Ds_sketch.Build
module Pool = Ds_parallel.Pool

let domain_matrix = [ 1; 2; 4; 8 ]

let entries_equal name want got =
  Alcotest.(check int) (name ^ " node count") (Array.length want)
    (Array.length got);
  Array.iteri
    (fun u es ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "%s node %d" name u)
        (Array.to_list es)
        (Array.to_list got.(u)))
    want

let sketch_entries s =
  Array.init (Sketch.n s) (fun u -> Sketch.node_entries s u)

let check_metrics_equal name a b =
  Alcotest.(check int) (name ^ " rounds") (Metrics.rounds a) (Metrics.rounds b);
  Alcotest.(check int)
    (name ^ " messages")
    (Metrics.messages a) (Metrics.messages b);
  Alcotest.(check int) (name ^ " words") (Metrics.words a) (Metrics.words b)

(* --- family tags --- *)

let test_family_strings () =
  List.iter
    (fun f ->
      match Family.of_string (Family.name f) with
      | Ok f' -> Alcotest.(check bool) (Family.name f) true (f = f')
      | Error e -> Alcotest.fail e)
    Family.all;
  (match Family.of_string "bottom-k" with
  | Ok Family.Bottomk -> ()
  | _ -> Alcotest.fail "bottom-k alias");
  match Family.of_string "nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted junk family"

(* --- bottom-k ADS --- *)

(* Distributed protocol == sequential rank-ordered Dijkstra, over the
   whole topology suite. This is the strongest statement: the final
   filter must demote exactly the entries the permissive admission
   let in on stale distances. *)
let test_bottomk_matches_reference () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun k ->
          let r = Bottomk.run g ~k ~seed:7 in
          let want = Bottomk.reference g ~k ~seed:7 in
          entries_equal
            (Printf.sprintf "bottomk %s k=%d" name k)
            want (sketch_entries r.Bottomk.sketch))
        [ 1; 2; 4 ])
    (Helpers.graph_suite 520)

(* ADS invariants on the distributed result: every member is admitted
   by its own prefix (fewer than k lex-lower ranks within its
   distance), and the k-th-lowest-rank threshold can only fall as the
   distance ball grows. *)
let test_bottomk_invariants () =
  let g = Helpers.random_graph ~seed:521 80 in
  let k = 3 in
  let seed = 9 in
  let r = Bottomk.run g ~k ~seed in
  let s = r.Bottomk.sketch in
  for u = 0 to Sketch.n s - 1 do
    let es = Sketch.node_entries s u in
    let rk v = (Bottomk.rank ~seed v, v) in
    Array.iter
      (fun (v, d) ->
        let dominating =
          Array.fold_left
            (fun c (w, d') -> if d' <= d && rk w < rk v then c + 1 else c)
            0 es
        in
        if dominating >= k then
          Alcotest.failf "node %d: entry %d at dist %d has %d dominators" u v d
            dominating)
      es;
    (* rank-threshold monotonicity: walk entries by increasing
       distance; once >= k entries are inside the ball, the k-th
       lowest rank must be non-increasing. *)
    let by_dist = Array.copy es in
    Array.sort (fun (v, d) (w, d') -> compare (d, v) (d', w)) by_dist;
    let seen = ref [] in
    let last = ref (max_int, max_int) in
    Array.iter
      (fun (v, _) ->
        seen := rk v :: !seen;
        let sorted = List.sort compare !seen in
        if List.length sorted >= k then begin
          let thresh = List.nth sorted (k - 1) in
          if thresh > !last then
            Alcotest.failf "node %d: rank threshold grew" u;
          last := thresh
        end)
      by_dist
  done

(* Estimates: never below the true distance, and finite for every
   connected pair (the component's minimum-rank node is in every
   sketch on that component). *)
let test_bottomk_estimate_bounds () =
  List.iter
    (fun (name, g) ->
      let apsp = Apsp.compute g in
      let r = Bottomk.run g ~k:4 ~seed:11 in
      let s = r.Bottomk.sketch in
      Apsp.iter_pairs apsp (fun u v d ->
          let est = Sketch.estimate s u v in
          if Dist.is_finite d then begin
            if not (Dist.is_finite est) then
              Alcotest.failf "%s: no estimate for connected (%d,%d)" name u v;
            if est < d then
              Alcotest.failf "%s: underestimate %d < %d for (%d,%d)" name est d
                u v
          end))
    (Helpers.graph_suite 522)

let test_bottomk_cross_backend () =
  let g = Helpers.random_graph ~seed:523 120 in
  let ref_r = Bottomk.run ~backend:Plane.Congest g ~k:3 ~seed:13 in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains @@ fun pool ->
      let r = Bottomk.run ~backend:Plane.Sharded ~pool g ~k:3 ~seed:13 in
      let name = Printf.sprintf "bottomk d=%d" domains in
      Alcotest.(check bool)
        (name ^ " sketch") true
        (Sketch.equal ref_r.Bottomk.sketch r.Bottomk.sketch);
      check_metrics_equal name ref_r.Bottomk.metrics r.Bottomk.metrics;
      Alcotest.(check int)
        (name ^ " max_pending")
        ref_r.Bottomk.max_pending r.Bottomk.max_pending)
    domain_matrix

(* --- landmark sketches --- *)

let test_landmark_set_shapes () =
  let n = 100 and k = 2 and seed = 3 in
  let r = Landmark.r ~n in
  Alcotest.(check int) "r = floor(log2 100)" 6 r;
  let sets = Landmark.sets ~n ~k ~seed in
  Alcotest.(check int) "k*r sets" (k * r) (Array.length sets);
  Array.iteri
    (fun i set ->
      let j = i mod r in
      Alcotest.(check int)
        (Printf.sprintf "set %d size" i)
        (min (1 lsl j) n) (Array.length set);
      Array.iteri
        (fun idx v ->
          if v < 0 || v >= n then Alcotest.failf "set %d out of range" i;
          if idx > 0 && set.(idx - 1) >= v then
            Alcotest.failf "set %d not increasing" i)
        set)
    sets

let test_landmark_matches_reference () =
  List.iter
    (fun (name, g) ->
      let r = Landmark.run g ~k:2 ~seed:17 in
      let want = Landmark.reference g ~k:2 ~seed:17 in
      entries_equal
        (Printf.sprintf "landmark %s" name)
        want (sketch_entries r.Landmark.sketch))
    (Helpers.graph_suite 524)

(* The estimator contract: always an upper bound, and exact whenever
   some vertex on a true shortest path is a common landmark of both
   endpoints (entry distances are exact super-BF distances). *)
let test_landmark_estimate_bounds () =
  List.iter
    (fun (name, g) ->
      let apsp = Apsp.compute g in
      let r = Landmark.run g ~k:2 ~seed:19 in
      let s = r.Landmark.sketch in
      Apsp.iter_pairs apsp (fun u v d ->
          if Dist.is_finite d then begin
            let est = Sketch.estimate s u v in
            if est < d then
              Alcotest.failf "%s: underestimate %d < %d for (%d,%d)" name est d
                u v;
            (* exactness witness: a common entry on a shortest path *)
            let exact_witness = ref false in
            Array.iter
              (fun (w, duw) ->
                let dwv = Sketch.find s v w in
                if Dist.is_finite dwv && duw + dwv = d then
                  exact_witness := true)
              (Sketch.node_entries s u);
            if !exact_witness && est <> d then
              Alcotest.failf
                "%s: est %d <> exact %d for (%d,%d) despite witness" name est d
                u v
          end))
    (Helpers.graph_suite 525)

(* Small random graphs, often disconnected (so some sets are
   unreachable from some nodes) and often with n <= 5 (so set sizes
   saturate at n and landmarks repeat across sets), against the
   reference on both backends. *)
let prop_landmark_matches_reference =
  QCheck.Test.make ~name:"landmark = reference on small random graphs"
    ~count:80
    QCheck.(quad (int_range 1 9) (int_range 0 100000) (int_range 1 3)
              (int_range 0 100000))
    (fun (n, gseed, k, seed) ->
      let rng = Rng.create gseed in
      let p = float_of_int (gseed mod 7) /. 10.0 in
      let edges = ref [] in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if Rng.float rng 1.0 < p then
            edges := (u, v, 1 + Rng.int rng 5) :: !edges
        done
      done;
      let g = Graph.of_edges ~n !edges in
      let want = Landmark.reference g ~k ~seed in
      let got backend =
        let r =
          Landmark.run ~backend ~shards:(1 + (seed mod 3)) g ~k ~seed
        in
        sketch_entries r.Landmark.sketch
      in
      got Plane.Congest = want && got Plane.Sharded = want)

(* Bottom-k counterpart of the landmark property: small random graphs,
   often disconnected, k up to 4 (so k often exceeds a component's
   size and admission never rejects), both backends and 1–3 shards,
   against the sequential reference. *)
let prop_bottomk_matches_reference =
  QCheck.Test.make ~name:"bottom-k = reference on small random graphs"
    ~count:80
    QCheck.(quad (int_range 1 9) (int_range 0 100000) (int_range 1 4)
              (int_range 0 100000))
    (fun (n, gseed, k, seed) ->
      let rng = Rng.create gseed in
      let p = float_of_int (gseed mod 7) /. 10.0 in
      let edges = ref [] in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if Rng.float rng 1.0 < p then
            edges := (u, v, 1 + Rng.int rng 5) :: !edges
        done
      done;
      let g = Graph.of_edges ~n !edges in
      let want = Bottomk.reference g ~k ~seed in
      let got backend =
        let r = Bottomk.run ~backend ~shards:(1 + (seed mod 3)) g ~k ~seed in
        sketch_entries r.Bottomk.sketch
      in
      got Plane.Congest = want && got Plane.Sharded = want)

let test_landmark_cross_backend () =
  let g = Helpers.random_graph ~seed:526 110 in
  let ref_r = Landmark.run ~backend:Plane.Congest g ~k:2 ~seed:23 in
  (* All k·r sets run as one pipelined wave: a single phase. *)
  (match Metrics.phases ref_r.Landmark.metrics with
  | [ { Metrics.name = "landmark"; rounds; _ } ] ->
    Alcotest.(check int) "phase covers the run" rounds
      (Metrics.rounds ref_r.Landmark.metrics)
  | ps -> Alcotest.failf "expected one landmark phase, got %d" (List.length ps));
  if ref_r.Landmark.mem_words <= 0 then
    Alcotest.failf "mem_words %d, expected > 0" ref_r.Landmark.mem_words;
  List.iter
    (fun domains ->
      Pool.with_pool ~domains @@ fun pool ->
      let r = Landmark.run ~backend:Plane.Sharded ~pool g ~k:2 ~seed:23 in
      let name = Printf.sprintf "landmark d=%d" domains in
      Alcotest.(check bool)
        (name ^ " sketch") true
        (Sketch.equal ref_r.Landmark.sketch r.Landmark.sketch);
      check_metrics_equal name ref_r.Landmark.metrics r.Landmark.metrics;
      if r.Landmark.mem_words <= 0 then
        Alcotest.failf "%s mem_words %d, expected > 0" name r.Landmark.mem_words)
    domain_matrix

(* --- the shared container --- *)

(* The tz compilation path moved from Oracle into Sketch; pin the
   estimator against the label-level query it reimplements. *)
let test_tz_estimate_parity () =
  let g = Helpers.random_graph ~seed:527 70 in
  let b = Build.run ~family:Family.Tz g ~k:3 ~seed:42 in
  let s = b.Build.sketch in
  Alcotest.(check bool) "family" true (Sketch.family s = Family.Tz);
  let levels =
    Ds_core.Levels.sample ~rng:(Rng.create 43) ~n:(Graph.n g) ~k:3
  in
  let r = Ds_core.Tz_distributed.build g ~levels in
  let labels = r.Ds_core.Tz_distributed.labels in
  let n = Graph.n g in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      Alcotest.(check int)
        (Printf.sprintf "query (%d,%d)" u v)
        (Label.query labels.(u) labels.(v))
        (Sketch.estimate s u v);
      Alcotest.(check int)
        (Printf.sprintf "bidi (%d,%d)" u v)
        (Label.query_bidirectional labels.(u) labels.(v))
        (Sketch.estimate_bidirectional s u v)
    done
  done

let test_container_validation () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: accepted invalid input" name
  in
  expect_invalid "v empty" (fun () ->
      Sketch.v ~family:Family.Bottomk ~k:2 [||]);
  expect_invalid "v tz" (fun () ->
      Sketch.v ~family:Family.Tz ~k:2 [| [| (0, 0) |] |]);
  expect_invalid "v unsorted" (fun () ->
      Sketch.v ~family:Family.Bottomk ~k:2 [| [| (1, 1); (0, 0) |]; [||] |]);
  expect_invalid "v duplicate" (fun () ->
      Sketch.v ~family:Family.Bottomk ~k:2 [| [| (0, 0); (0, 1) |]; [||] |]);
  expect_invalid "v out of range" (fun () ->
      Sketch.v ~family:Family.Bottomk ~k:2 [| [| (5, 1) |]; [||] |]);
  expect_invalid "v negative dist" (fun () ->
      Sketch.v ~family:Family.Bottomk ~k:2 [| [| (0, -1) |]; [||] |]);
  expect_invalid "of_arrays pivot shape" (fun () ->
      Sketch.of_arrays ~family:Family.Landmark ~k:2 ~pivot_dist:[| 0 |]
        ~pivot_node:[| 0 |] ~off:[| 0; 0 |] ~ent_node:[||] ~ent_dist:[||]);
  let s =
    Sketch.v ~family:Family.Landmark ~k:1
      [| [| (0, 0); (2, 5) |]; [| (2, 1) |]; [| (2, 0) |] |]
  in
  Alcotest.(check int) "size_words" 8 (Sketch.size_words s);
  Alcotest.(check int) "node 0 words" 4 (Sketch.node_size_words s 0);
  Alcotest.(check int) "find hit" 5 (Sketch.find s 0 2);
  Alcotest.(check bool) "find miss" false (Dist.is_finite (Sketch.find s 1 0));
  Alcotest.(check int) "self" 0 (Sketch.estimate s 0 0);
  Alcotest.(check int) "common via 2" 6 (Sketch.estimate s 0 1);
  let est, probes = Sketch.estimate_probes s 0 1 in
  Alcotest.(check int) "probed est" 6 est;
  Alcotest.(check bool) "probes counted" true (probes > 0)

let suite =
  [
    Alcotest.test_case "family names round-trip" `Quick test_family_strings;
    Alcotest.test_case "bottom-k matches sequential reference" `Quick
      test_bottomk_matches_reference;
    Alcotest.test_case "bottom-k ADS invariants" `Quick test_bottomk_invariants;
    Alcotest.test_case "bottom-k estimates bounded below by truth" `Quick
      test_bottomk_estimate_bounds;
    Alcotest.test_case "bottom-k congest = sharded across pools" `Quick
      test_bottomk_cross_backend;
    Alcotest.test_case "landmark set shapes" `Quick test_landmark_set_shapes;
    Alcotest.test_case "landmark matches sequential reference" `Quick
      test_landmark_matches_reference;
    Alcotest.test_case "landmark upper bound + witness exactness" `Quick
      test_landmark_estimate_bounds;
    Alcotest.test_case "landmark congest = sharded across pools" `Quick
      test_landmark_cross_backend;
    QCheck_alcotest.to_alcotest prop_landmark_matches_reference;
    QCheck_alcotest.to_alcotest prop_bottomk_matches_reference;
    Alcotest.test_case "tz estimate parity with Label.query" `Quick
      test_tz_estimate_parity;
    Alcotest.test_case "container validation and accessors" `Quick
      test_container_validation;
  ]
