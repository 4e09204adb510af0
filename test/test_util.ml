module Rng = Ds_util.Rng
module Pqueue = Ds_util.Pqueue
module Stats = Ds_util.Stats
module Table = Ds_util.Table

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let c = Rng.split a in
  let x = Rng.bits64 a and y = Rng.bits64 c in
  Alcotest.(check bool) "streams differ" true (x <> y)

let test_rng_int_range () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_in () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int_in r 5 9 in
    Alcotest.(check bool) "in range" true (v >= 5 && v <= 9)
  done

let test_rng_bool_bias () =
  let r = Rng.create 11 in
  let hits = ref 0 in
  let trials = 20000 in
  for _ = 1 to trials do
    if Rng.bool r 0.25 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "freq %.3f near 0.25" freq)
    true
    (freq > 0.22 && freq < 0.28)

let test_rng_sample_without_replacement () =
  let r = Rng.create 5 in
  let s = Rng.sample_without_replacement r 10 30 in
  Alcotest.(check int) "count" 10 (Array.length s);
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun v ->
      Alcotest.(check bool) "range" true (v >= 0 && v < 30);
      Alcotest.(check bool) "distinct" false (Hashtbl.mem seen v);
      Hashtbl.replace seen v ())
    s

let test_rng_shuffle_permutation () =
  let r = Rng.create 5 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let prop_pqueue_sorts =
  QCheck.Test.make ~name:"pqueue pops in sorted order" ~count:200
    QCheck.(list small_int)
    (fun l ->
      let q = Pqueue.create () in
      List.iter (fun x -> Pqueue.add q x x) l;
      let rec drain acc =
        match Pqueue.pop_min q with
        | None -> List.rev acc
        | Some (k, _) -> drain (k :: acc)
      in
      drain [] = List.sort compare l)

let test_pqueue_interleaved () =
  let q = Pqueue.create () in
  Pqueue.add q 5 "five";
  Pqueue.add q 1 "one";
  Alcotest.(check (option (pair int string))) "min" (Some (1, "one"))
    (Pqueue.min_elt q);
  Alcotest.(check (option (pair int string))) "pop" (Some (1, "one"))
    (Pqueue.pop_min q);
  Pqueue.add q 0 "zero";
  Alcotest.(check (option (pair int string))) "pop2" (Some (0, "zero"))
    (Pqueue.pop_min q);
  Alcotest.(check (option (pair int string))) "pop3" (Some (5, "five"))
    (Pqueue.pop_min q);
  Alcotest.(check bool) "empty" true (Pqueue.is_empty q)

let test_stats_basic () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean a);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.min_of a);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Stats.max_of a);
  Alcotest.(check (float 1e-9)) "median" 2.5 (Stats.median a);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile a 0.0);
  Alcotest.(check (float 1e-9)) "p100" 4.0 (Stats.percentile a 100.0)

let test_stats_variance () =
  let a = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  Alcotest.(check (float 1e-9)) "variance" 4.0 (Stats.variance a);
  Alcotest.(check (float 1e-9)) "stddev" 2.0 (Stats.stddev a)

let test_stats_histogram () =
  let a = [| 0.0; 0.1; 0.9; 1.0 |] in
  let h = Stats.histogram ~buckets:2 a in
  Alcotest.(check int) "buckets" 2 (Array.length h);
  let total = Array.fold_left (fun s (_, _, c) -> s + c) 0 h in
  Alcotest.(check int) "total" 4 total

let test_table_render () =
  let t = Table.create ~title:"t" ~headers:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "x" ];
  Table.add_row t [ "22"; "yy" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true
    (String.length s > 0 && String.sub s 0 4 = "== t");
  Alcotest.(check bool) "mentions rows" true
    (String.length s > 20)

let test_table_csv () =
  let t = Table.create ~title:"My Table (v1)" ~headers:[ "a"; "b" ] in
  Table.add_row t [ "1"; "hello, world" ];
  Table.add_row t [ "2"; "quote\"inside" ];
  let csv = Table.to_csv t in
  Alcotest.(check string) "csv content"
    "a,b\n1,\"hello, world\"\n2,\"quote\"\"inside\"\n" csv

let test_table_save_csv () =
  let t = Table.create ~title:"Save Me 42!" ~headers:[ "x" ] in
  Table.add_row t [ "7" ];
  let dir = Filename.temp_file "distsketch" "" in
  Sys.remove dir;
  let path = Table.save_csv t ~dir in
  Alcotest.(check bool) "file exists" true (Sys.file_exists path);
  Alcotest.(check bool) "slugged name" true
    (Filename.basename path = "save-me-42.csv");
  Sys.remove path;
  Sys.rmdir dir

let test_table_arity () =
  let t = Table.create ~title:"t" ~headers:[ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: wrong arity")
    (fun () -> Table.add_row t [ "only-one" ])

(* [mix] is a hash whose values are persisted indirectly (bottom-k
   ranks decide which entries a snapshot holds), so pin a few. *)
let test_rng_mix_known_answers () =
  List.iter
    (fun (x, want) ->
      Alcotest.(check int) (Printf.sprintf "mix %d" x) want (Rng.mix x))
    [
      (0, 0);
      (1, 1626386729513190885);
      (42, 2835554897195333154);
      (-1, 3805636230021627259);
      (max_int, 3257252062424133470);
    ]

(* [mix] runs on every bottom-k rank and every jittered link delay:
   it must not allocate. Same call-overhead pattern as the engine's
   zero-allocation pins. *)
let test_rng_mix_zero_alloc () =
  let calls = 10_000 in
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  let call_overhead = w1 -. w0 in
  let a = Gc.minor_words () in
  for i = 1 to calls do
    acc := !acc lxor Rng.mix i
  done;
  let b = Gc.minor_words () in
  ignore (Sys.opaque_identity !acc);
  Alcotest.(check (float 0.0))
    "minor words per mix" 0.0
    ((b -. a -. call_overhead) /. float_of_int calls)

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng split independent" `Quick test_rng_split_independent;
    Alcotest.test_case "rng int range" `Quick test_rng_int_range;
    Alcotest.test_case "rng mix known answers" `Quick
      test_rng_mix_known_answers;
    Alcotest.test_case "rng mix allocates nothing" `Quick
      test_rng_mix_zero_alloc;
    Alcotest.test_case "rng int_in range" `Quick test_rng_int_in;
    Alcotest.test_case "rng bool bias" `Quick test_rng_bool_bias;
    Alcotest.test_case "rng sample w/o replacement" `Quick
      test_rng_sample_without_replacement;
    Alcotest.test_case "rng shuffle permutation" `Quick
      test_rng_shuffle_permutation;
    QCheck_alcotest.to_alcotest prop_pqueue_sorts;
    Alcotest.test_case "pqueue interleaved" `Quick test_pqueue_interleaved;
    Alcotest.test_case "stats basic" `Quick test_stats_basic;
    Alcotest.test_case "stats variance" `Quick test_stats_variance;
    Alcotest.test_case "stats histogram" `Quick test_stats_histogram;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table csv" `Quick test_table_csv;
    Alcotest.test_case "table save csv" `Quick test_table_save_csv;
    Alcotest.test_case "table arity" `Quick test_table_arity;
  ]
