(* The serving subsystem: snapshot store byte-stability and error
   handling, compact-oracle query equivalence against the hashtable
   labels, batch determinism under every pool size, and the synthetic
   workload generators. *)

module Rng = Ds_util.Rng
module Graph = Ds_graph.Graph
module Levels = Ds_core.Levels
module Label = Ds_core.Label
module Tz_centralized = Ds_core.Tz_centralized
module Store = Ds_oracle.Sketch_store
module Oracle = Ds_oracle.Oracle
module Workload = Ds_oracle.Workload
module Pool = Ds_parallel.Pool
module Sketch = Ds_sketch.Sketch
module Family = Ds_sketch.Family
module Sketch_build = Ds_sketch.Build

let labels_for ?(seed = 7) g k =
  let n = Graph.n g in
  let levels = Levels.sample ~rng:(Rng.create seed) ~n ~k in
  Tz_centralized.build g ~levels

let suite_stores () =
  List.map
    (fun (name, g) ->
      (name, g, Store.of_labels ~seed:91 ~graph_family:name (labels_for g 3)))
    (Helpers.graph_suite 91)

(* ---- snapshot store ---- *)

let test_store_roundtrip_bytes () =
  List.iter
    (fun (name, _, store) ->
      let b1 = Store.to_bytes store in
      let reloaded = Store.of_bytes b1 in
      let b2 = Store.to_bytes reloaded in
      Alcotest.(check bool)
        (Printf.sprintf "%s: save -> load -> save is byte-identical" name)
        true (String.equal b1 b2);
      Alcotest.(check int)
        (Printf.sprintf "%s: meta n" name)
        store.Store.meta.Store.n reloaded.Store.meta.Store.n;
      Alcotest.(check int)
        (Printf.sprintf "%s: meta k" name)
        store.Store.meta.Store.k reloaded.Store.meta.Store.k;
      Alcotest.(check int)
        (Printf.sprintf "%s: meta seed" name)
        store.Store.meta.Store.seed reloaded.Store.meta.Store.seed;
      Alcotest.(check string)
        (Printf.sprintf "%s: meta graph family" name)
        store.Store.meta.Store.graph_family
        reloaded.Store.meta.Store.graph_family;
      Alcotest.(check string)
        (Printf.sprintf "%s: meta sketch family" name)
        (Family.name store.Store.meta.Store.sketch_family)
        (Family.name reloaded.Store.meta.Store.sketch_family);
      Alcotest.(check bool)
        (Printf.sprintf "%s: sketch survives round-trip" name)
        true
        (Sketch.equal store.Store.sketch reloaded.Store.sketch))
    (suite_stores ())

let test_store_file_roundtrip () =
  let _, _, store = List.hd (suite_stores ()) in
  let path = Filename.temp_file "distsketch" ".dsk" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Store.save path store;
      let reloaded = Store.load path in
      Alcotest.(check bool)
        "file round-trip is byte-identical" true
        (String.equal (Store.to_bytes store) (Store.to_bytes reloaded)))

let check_store_error ~name ~substring bytes =
  match Store.of_bytes bytes with
  | _ -> Alcotest.failf "%s: expected Sketch_store.Error" name
  | exception Store.Error msg ->
    let found =
      let sl = String.length substring and ml = String.length msg in
      let rec scan i = i + sl <= ml && (String.sub msg i sl = substring || scan (i + 1)) in
      scan 0
    in
    if not found then
      Alcotest.failf "%s: error %S does not mention %S" name msg substring

let test_store_malformed () =
  let _, _, store = List.hd (suite_stores ()) in
  let good = Store.to_bytes store in
  check_store_error ~name:"empty" ~substring:"truncated" "";
  check_store_error ~name:"bad magic" ~substring:"magic"
    ("NOTADSKS" ^ String.sub good 8 (String.length good - 8));
  (let b = Bytes.of_string good in
   Bytes.set_int64_le b 8 99L;
   check_store_error ~name:"wrong version" ~substring:"version"
     (Bytes.to_string b));
  check_store_error ~name:"truncated body" ~substring:"truncated"
    (String.sub good 0 (String.length good - 10));
  check_store_error ~name:"truncated header" ~substring:"truncated"
    (String.sub good 0 20);
  (let b = Bytes.of_string good in
   (* Flip one payload byte in the pivot section: the checksum must
      catch it. *)
   let at = String.length good / 2 in
   Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0xff));
   check_store_error ~name:"flipped byte" ~substring:"checksum"
     (Bytes.to_string b));
  (let b = Bytes.of_string good in
   (* Garbage appended: the declared sizes no longer match. *)
   check_store_error ~name:"oversized" ~substring:"oversized"
     (Bytes.to_string b ^ "trailing-garbage"))

let test_store_validation () =
  let g = Helpers.random_graph ~seed:5 20 in
  let labels = labels_for g 2 in
  Alcotest.check_raises "empty label set"
    (Invalid_argument "Sketch_store.of_labels: empty label set") (fun () ->
      ignore (Store.of_labels [||]));
  let swapped = Array.copy labels in
  swapped.(0) <- labels.(1);
  (match Store.of_labels swapped with
  | _ -> Alcotest.fail "owner mismatch accepted"
  | exception Invalid_argument _ -> ())

(* v2 snapshots carry any sketch family: round-trip landmark and
   bottom-k stores the same way the tz suite above does, checking the
   family tag and the sketch payload both survive. *)
let test_store_v2_all_families () =
  let g = Helpers.random_graph ~seed:23 40 in
  List.iter
    (fun family ->
      let built = Sketch_build.run ~family g ~k:3 ~seed:23 in
      let store =
        Store.v ~seed:23 ~graph_family:"random" built.Sketch_build.sketch
      in
      let name = Family.name family in
      let reloaded = Store.of_bytes (Store.to_bytes store) in
      Alcotest.(check string)
        (Printf.sprintf "%s: sketch family survives" name)
        name
        (Family.name reloaded.Store.meta.Store.sketch_family);
      Alcotest.(check string)
        (Printf.sprintf "%s: graph family survives" name)
        "random" reloaded.Store.meta.Store.graph_family;
      Alcotest.(check bool)
        (Printf.sprintf "%s: sketch survives" name)
        true
        (Sketch.equal store.Store.sketch reloaded.Store.sketch);
      Alcotest.(check bool)
        (Printf.sprintf "%s: re-serialization byte-identical" name)
        true
        (String.equal (Store.to_bytes store) (Store.to_bytes reloaded)))
    Family.all

(* A pre-platform (v1) snapshot must still load: same sketch, family
   mapped to [graph_family], sketch family pinned to tz. And rewriting
   it through the v2 writer must round-trip from there. *)
let test_store_v1_compat () =
  let _, _, store = List.hd (suite_stores ()) in
  let v1 = Store.to_bytes_v1 store in
  let from_v1 = Store.of_bytes v1 in
  Alcotest.(check string)
    "v1 family reads back as graph_family"
    store.Store.meta.Store.graph_family from_v1.Store.meta.Store.graph_family;
  Alcotest.(check string)
    "v1 sketch family is tz" "tz"
    (Family.name from_v1.Store.meta.Store.sketch_family);
  Alcotest.(check bool)
    "v1 sketch payload identical" true
    (Sketch.equal store.Store.sketch from_v1.Store.sketch);
  (* v1 -> v2 rewrite: serializing the loaded store emits v2 bytes
     identical to serializing the original. *)
  Alcotest.(check bool)
    "v1 -> v2 rewrite is byte-identical" true
    (String.equal (Store.to_bytes store) (Store.to_bytes from_v1));
  (* Only tz has a v1 layout. *)
  let g = Helpers.random_graph ~seed:29 20 in
  let built = Sketch_build.run ~family:Family.Bottomk g ~k:2 ~seed:29 in
  let bk = Store.v ~seed:29 built.Sketch_build.sketch in
  match Store.to_bytes_v1 bk with
  | _ -> Alcotest.fail "v1 writer accepted a non-tz store"
  | exception Invalid_argument _ -> ()

(* ---- byte format pins ---- *)

(* FNV-1a 64 known answers (the published test vectors), so the
   checksum is pinned independently of any round-trip. *)
let test_fnv1a64_known_answers () =
  List.iter
    (fun (s, want) ->
      Alcotest.(check string)
        (Printf.sprintf "fnv1a64 %S" s)
        want
        (Printf.sprintf "%016Lx" (Store.fnv1a64 s)))
    [
      ("", "cbf29ce484222325");
      ("a", "af63dc4c8601ec8c");
      ("foobar", "85944171f73967e8");
    ]

(* One fixed small sketch per family (two components, so tz pivots
   and bottom-k/landmark entries include unreachable nodes), and the
   digest of every layout the writer emits for it. A round-trip test
   cannot see a writer change that its own reader follows; these
   digests can. *)
let golden_store family =
  let g =
    Graph.of_edges ~n:9
      [
        (0, 1, 3); (1, 2, 1); (2, 3, 4); (3, 0, 2); (1, 4, 5); (4, 5, 1);
        (5, 6, 2); (6, 2, 7); (7, 8, 2);
      ]
  in
  let built = Sketch_build.run ~family g ~k:2 ~seed:5 in
  Store.v ~seed:5 ~graph_family:"golden" built.Sketch_build.sketch

let test_store_golden_digests () =
  let check name bytes want =
    Alcotest.(check string) name want (Digest.to_hex (Digest.string bytes))
  in
  List.iter
    (fun (family, v3, v2) ->
      let store = golden_store family in
      let name = Family.name family in
      check (name ^ " v3") (Store.to_bytes store) v3;
      check (name ^ " v2") (Store.to_bytes_v2 store) v2)
    [
      ( Family.Tz,
        "e33b9f6de11d713ff9712ef50b568ed9",
        "957330449b4a22113c91695a3353237b" );
      ( Family.Landmark,
        "f56808425ff4d96de07676fe8fbeca13",
        "453cb8a4411fe43ac1ec35353b19ba43" );
      ( Family.Bottomk,
        "061dbeca54078a151dfac76c6d5467de",
        "e98c72c4a99b42484b0dddfd664e9a2b" );
    ];
  check "tz v1"
    (Store.to_bytes_v1 (golden_store Family.Tz))
    "3a5646724c02f5ffbe1517e16d99314b"

(* The heap loader checksums the whole payload, so hashing must not
   allocate per byte: a 1 MiB hash allocates exactly what an empty one
   does (the boxed result). Same call-overhead pattern as the engine's
   zero-allocation pins. *)
let test_fnv1a64_zero_alloc () =
  let big = String.init (1 lsl 20) (fun i -> Char.chr (i land 255)) in
  let words s =
    let w0 = Gc.minor_words () in
    let w1 = Gc.minor_words () in
    let call_overhead = w1 -. w0 in
    let a = Gc.minor_words () in
    ignore (Sys.opaque_identity (Store.fnv1a64 s));
    let b = Gc.minor_words () in
    b -. a -. call_overhead
  in
  ignore (words big);
  Alcotest.(check (float 0.0))
    "minor words: 1 MiB hash = empty hash" (words "") (words big)

(* ---- mapped snapshots ---- *)

let with_temp_snapshot bytes f =
  let path = Filename.temp_file "distsketch" ".dsk" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc bytes;
      close_out oc;
      f path)

let check_mmap_error ~name ~substring bytes =
  with_temp_snapshot bytes (fun path ->
      match Store.load ~mode:Store.Mmap path with
      | _ -> Alcotest.failf "%s: expected Sketch_store.Error" name
      | exception Store.Error msg ->
        let found =
          let sl = String.length substring and ml = String.length msg in
          let rec scan i =
            i + sl <= ml && (String.sub msg i sl = substring || scan (i + 1))
          in
          scan 0
        in
        if not found then
          Alcotest.failf "%s: error %S does not mention %S" name msg substring)

(* The mapped loader must reject every malformed input the heap loader
   rejects — with a structured [Error], never a crash or silent
   garbage — plus the mmap-only failure modes: a file whose length is
   not a word multiple, and pre-v3 layouts that cannot be mapped. *)
let test_store_mmap_malformed () =
  let _, _, store = List.hd (suite_stores ()) in
  let good = Store.to_bytes store in
  let len = String.length good in
  check_mmap_error ~name:"empty" ~substring:"truncated" "";
  check_mmap_error ~name:"tiny" ~substring:"truncated" "DSSKETCH";
  check_mmap_error ~name:"bad magic" ~substring:"magic"
    ("NOTADSKS" ^ String.sub good 8 (len - 8));
  (* Chopping 4 bytes breaks 8-byte alignment before anything else. *)
  check_mmap_error ~name:"misaligned" ~substring:"multiple of 8"
    (String.sub good 0 (len - 4));
  (* Chopping a whole word keeps alignment but breaks the size
     arithmetic. *)
  check_mmap_error ~name:"short one word" ~substring:"truncated"
    (String.sub good 0 (len - 8));
  check_mmap_error ~name:"oversized" ~substring:"oversized"
    (good ^ String.make 8 'x');
  (* v1/v2 layouts have unaligned sections; the mapped loader must
     refuse them with upgrade advice rather than serve garbage. *)
  check_mmap_error ~name:"v2 via mmap" ~substring:"predates"
    (Store.to_bytes_v2 store);
  check_mmap_error ~name:"v1 via mmap" ~substring:"predates"
    (Store.to_bytes_v1 store);
  (* A flipped header byte fails the O(1) header checksum. *)
  (let b = Bytes.of_string good in
   Bytes.set_int64_le b 32 0x4242424242424242L;
   check_mmap_error ~name:"header flip" ~substring:"header checksum"
     (Bytes.to_string b));
  (* A corrupted offset table is the one section a mapped query
     indexes through, so [of_mapped] validates it in full. Locate it
     from the section arithmetic: everything between the header and
     the sections is fixed-width, so the header length falls out of
     the file size. *)
  (let sk = store.Store.sketch in
   let n = Sketch.n sk in
   let words =
     n + 1 + (2 * Sketch.pivot_pairs sk) + (2 * Sketch.total_entries sk)
   in
   let header_bytes = len - (8 * words) - 8 in
   let b = Bytes.of_string good in
   Bytes.set_int64_le b (header_bytes + 8)
     (Int64.of_int (Sketch.total_entries sk + 1000));
   check_mmap_error ~name:"corrupt off table" ~substring:"corrupt snapshot"
     (Bytes.to_string b))

(* Property: for every family x graph, the mapped oracle is
   indistinguishable from the heap one — same sketch, byte-identical
   answers on every query path, byte-stable re-serialization — and
   the mapping is visible only through [load_mode]/[mapped_bytes]. *)
let test_store_mmap_matches_heap () =
  let stores =
    List.map (fun (name, g, s) -> ("tz/" ^ name, g, s)) (suite_stores ())
    @ List.concat_map
        (fun (name, g) ->
          List.map
            (fun family ->
              let built = Sketch_build.run ~family g ~k:3 ~seed:53 in
              ( Family.name family ^ "/" ^ name,
                g,
                Store.v ~seed:53 ~graph_family:name built.Sketch_build.sketch
              ))
            Family.all)
        [ ("random", Helpers.random_graph ~seed:53 48) ]
  in
  List.iter
    (fun (name, g, store) ->
      let n = Graph.n g in
      with_temp_snapshot (Store.to_bytes store) (fun path ->
          let heap = Store.load ~mode:Store.Heap path in
          let mapped = Store.load ~mode:Store.Mmap path in
          Alcotest.(check string)
            (name ^ ": load_mode") "mmap"
            (Store.mode_name mapped.Store.load_mode);
          Alcotest.(check string)
            (name ^ ": heap load_mode") "heap"
            (Store.mode_name heap.Store.load_mode);
          Alcotest.(check int)
            (name ^ ": mapped_bytes = file size")
            (String.length (Store.to_bytes store))
            (Store.mapped_bytes mapped);
          Alcotest.(check int)
            (name ^ ": heap maps nothing") 0 (Store.mapped_bytes heap);
          Alcotest.(check bool)
            (name ^ ": sketches equal") true
            (Sketch.equal heap.Store.sketch mapped.Store.sketch);
          Alcotest.(check bool)
            (name ^ ": mmap -> save is byte-stable") true
            (String.equal (Store.to_bytes store) (Store.to_bytes mapped));
          let oh = Oracle.of_store heap and om = Oracle.of_store mapped in
          for u = 0 to n - 1 do
            for v = 0 to n - 1 do
              Alcotest.(check int)
                (Printf.sprintf "%s: query(%d,%d)" name u v)
                (Oracle.query oh u v) (Oracle.query om u v);
              Alcotest.(check int)
                (Printf.sprintf "%s: bidir(%d,%d)" name u v)
                (Oracle.query_bidirectional oh u v)
                (Oracle.query_bidirectional om u v)
            done
          done;
          let flat =
            Workload.pairs_flat ~rng:(Rng.create 54) Workload.Uniform ~n
              ~count:2000
          in
          Pool.with_pool ~domains:2 (fun pool ->
              Alcotest.(check (array int))
                (name ^ ": batch answers identical")
                (Oracle.query_batch_flat ~pool oh flat)
                (Oracle.query_batch_flat ~pool om flat));
          (* Serve fingerprint: the whole serving loop (queues, cache,
             workers) sees no difference either. *)
          let config =
            { Ds_oracle.Serve.default_config with cache_bits = 8 }
          in
          let ah, _ = Ds_oracle.Serve.run ~config oh flat in
          let am, _ = Ds_oracle.Serve.run ~config om flat in
          Alcotest.(check (array int))
            (name ^ ": serve answers identical") ah am))
    stores

(* ---- compact oracle ---- *)

let test_oracle_matches_label_query () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun k ->
          let labels = labels_for ~seed:(100 + k) g k in
          let o = Oracle.of_labels labels in
          let n = Graph.n g in
          for u = 0 to n - 1 do
            for v = u to n - 1 do
              Alcotest.(check int)
                (Printf.sprintf "%s k=%d query(%d,%d)" name k u v)
                (Label.query labels.(u) labels.(v))
                (Oracle.query o u v);
              Alcotest.(check int)
                (Printf.sprintf "%s k=%d bidir(%d,%d)" name k u v)
                (Label.query_bidirectional labels.(u) labels.(v))
                (Oracle.query_bidirectional o u v)
            done
          done)
        [ 1; 2; 3 ])
    (Helpers.graph_suite 97)

let test_oracle_from_store_matches () =
  let g = Helpers.random_graph ~seed:31 50 in
  let labels = labels_for ~seed:32 g 3 in
  let o1 = Oracle.of_labels labels in
  let o2 =
    Oracle.of_store (Store.of_bytes (Store.to_bytes (Store.of_labels labels)))
  in
  for u = 0 to 49 do
    for v = 0 to 49 do
      Alcotest.(check int)
        (Printf.sprintf "store-loaded oracle query(%d,%d)" u v)
        (Oracle.query o1 u v) (Oracle.query o2 u v)
    done
  done

let test_oracle_bunch_dist () =
  let g = Helpers.random_graph ~seed:41 40 in
  let labels = labels_for ~seed:42 g 3 in
  let o = Oracle.of_labels labels in
  for u = 0 to 39 do
    for w = 0 to 39 do
      Alcotest.(check (option int))
        (Printf.sprintf "bunch_dist(%d,%d)" u w)
        (Label.bunch_dist labels.(u) w)
        (Oracle.bunch_dist o u w)
    done
  done

let test_oracle_size_words () =
  let g = Helpers.random_graph ~seed:43 40 in
  let labels = labels_for ~seed:44 g 3 in
  let o = Oracle.of_labels labels in
  let total = Array.fold_left (fun a l -> a + Label.size_words l) 0 labels in
  Alcotest.(check int) "oracle size = sum of label sizes" total
    (Oracle.size_words o)

let test_oracle_probes () =
  let g = Helpers.random_graph ~seed:47 40 in
  let labels = labels_for ~seed:48 g 3 in
  let o = Oracle.of_labels labels in
  for u = 0 to 39 do
    for v = 0 to 39 do
      let est, probes = Oracle.query_probes o u v in
      Alcotest.(check int)
        (Printf.sprintf "probed estimate (%d,%d)" u v)
        (Oracle.query o u v) est;
      Alcotest.(check bool) "positive probe count" true (probes > 0)
    done
  done

let test_oracle_validation () =
  let g = Helpers.random_graph ~seed:51 20 in
  let labels = labels_for g 2 in
  let o = Oracle.of_labels labels in
  (match Oracle.query o 0 20 with
  | _ -> Alcotest.fail "out-of-range query accepted"
  | exception Invalid_argument _ -> ());
  let mixed = Array.copy labels in
  mixed.(3) <- Label.create ~owner:3 ~k:5;
  match Oracle.of_labels mixed with
  | _ -> Alcotest.fail "mixed k accepted"
  | exception Invalid_argument _ -> ()

(* ---- batched queries ---- *)

let test_batch_pool_size_independent () =
  let g = Helpers.random_graph ~seed:61 80 in
  let labels = labels_for ~seed:62 g 3 in
  let o = Oracle.of_labels labels in
  let pairs =
    Workload.pairs ~rng:(Rng.create 63) Workload.Uniform ~n:80 ~count:5000
  in
  let baseline = Array.map (fun (u, v) -> Oracle.query o u v) pairs in
  Alcotest.(check (array int))
    "sequential batch = one-by-one" baseline
    (Oracle.query_batch o pairs);
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          Alcotest.(check (array int))
            (Printf.sprintf "batch identical on %d domains" domains)
            baseline
            (Oracle.query_batch ~pool o pairs)))
    [ 1; 2; 3; 4 ]

let test_run_batch_stats () =
  let g = Helpers.random_graph ~seed:71 60 in
  let labels = labels_for ~seed:72 g 3 in
  let o = Oracle.of_labels labels in
  let pairs =
    Workload.pairs ~rng:(Rng.create 73)
      (Workload.Zipf { alpha = 1.2 })
      ~n:60 ~count:2000
  in
  let results, stats = Oracle.run_batch o pairs in
  Alcotest.(check (array int))
    "run_batch answers = query_batch" (Oracle.query_batch o pairs) results;
  Alcotest.(check int) "stats pairs" 2000 stats.Oracle.pairs;
  Alcotest.(check bool) "positive qps" true (stats.Oracle.qps > 0.0);
  Alcotest.(check bool) "positive latency" true
    (stats.Oracle.latency_ns.Ds_util.Stats.mean > 0.0)

(* ---- workloads ---- *)

let endpoint_counts n pairs =
  let c = Array.make n 0 in
  Array.iter
    (fun (u, v) ->
      c.(u) <- c.(u) + 1;
      c.(v) <- c.(v) + 1)
    pairs;
  c

let test_workload_uniform () =
  let n = 50 and count = 4000 in
  let p1 = Workload.pairs ~rng:(Rng.create 81) Workload.Uniform ~n ~count in
  let p2 = Workload.pairs ~rng:(Rng.create 81) Workload.Uniform ~n ~count in
  Alcotest.(check bool) "deterministic in the seed" true (p1 = p2);
  Alcotest.(check int) "count" count (Array.length p1);
  Array.iter
    (fun (u, v) ->
      Alcotest.(check bool) "in range, distinct endpoints" true
        (u >= 0 && u < n && v >= 0 && v < n && u <> v))
    p1;
  (* Uniform: no endpoint should dominate. Expected 160 per node. *)
  let c = endpoint_counts n p1 in
  Alcotest.(check bool) "no hotspot" true
    (Array.for_all (fun x -> x < 2 * 2 * count / n) c)

let test_workload_zipf () =
  let n = 50 and count = 4000 in
  let kind = Workload.Zipf { alpha = 1.4 } in
  let p1 = Workload.pairs ~rng:(Rng.create 83) kind ~n ~count in
  let p2 = Workload.pairs ~rng:(Rng.create 83) kind ~n ~count in
  Alcotest.(check bool) "deterministic in the seed" true (p1 = p2);
  Array.iter
    (fun (u, v) ->
      Alcotest.(check bool) "in range, distinct endpoints" true
        (u >= 0 && u < n && v >= 0 && v < n && u <> v))
    p1;
  let c = endpoint_counts n p1 in
  let hottest = Array.fold_left max 0 c in
  let mean = 2 * count / n in
  Alcotest.(check bool)
    (Printf.sprintf "skewed: hottest %d >= 4x mean %d" hottest mean)
    true
    (hottest >= 4 * mean);
  (* Different seeds shuffle the hot set. *)
  let p3 = Workload.pairs ~rng:(Rng.create 84) kind ~n ~count in
  Alcotest.(check bool) "seed moves the hot set" true (p1 <> p3)

let test_workload_pairs_file () =
  let flat =
    Workload.pairs_flat ~rng:(Rng.create 87) Workload.Uniform ~n:30 ~count:200
  in
  let path = Filename.temp_file "distsketch" ".pairs" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Workload.save_pairs path flat;
      Alcotest.(check (array int))
        "save -> load round-trips the flat layout" flat
        (Workload.load_pairs ~n:30 path);
      (* Comments and blank lines are part of the format. *)
      let oc = open_out path in
      output_string oc "# replayed pair set\n\n3 4\n  7   9 \n";
      close_out oc;
      Alcotest.(check (array int))
        "comments, blanks and stray spaces are tolerated" [| 3; 4; 7; 9 |]
        (Workload.load_pairs ~n:30 path);
      (* Out-of-range endpoints and malformed lines fail with context. *)
      let oc = open_out path in
      output_string oc "3 99\n";
      close_out oc;
      (match Workload.load_pairs ~n:30 path with
      | _ -> Alcotest.fail "out-of-range endpoint accepted"
      | exception Failure msg ->
        Alcotest.(check bool) "error names the file" true
          (String.length msg > 0 && String.sub msg 0 (String.length path) = path));
      let oc = open_out path in
      output_string oc "3 4 5\n";
      close_out oc;
      match Workload.load_pairs ~n:30 path with
      | _ -> Alcotest.fail "three-field line accepted"
      | exception Failure _ -> ());
  Alcotest.check_raises "odd-length array rejected"
    (Invalid_argument "Workload.save_pairs: odd-length flat array") (fun () ->
      Workload.save_pairs "/dev/null" [| 1 |])

let test_workload_kind_of_string () =
  Alcotest.(check bool) "uniform parses" true
    (Workload.kind_of_string "uniform" = Ok Workload.Uniform);
  (match Workload.kind_of_string "zipf" with
  | Ok (Workload.Zipf _) -> ()
  | _ -> Alcotest.fail "zipf should parse");
  (match Workload.kind_of_string "zipf:1.5" with
  | Ok (Workload.Zipf { alpha }) ->
    Alcotest.(check (float 1e-9)) "alpha" 1.5 alpha
  | _ -> Alcotest.fail "zipf:1.5 should parse");
  (match Workload.kind_of_string "nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad workload should not parse");
  match Workload.kind_of_string "zipf:x" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad alpha should not parse"

let suite =
  [
    Alcotest.test_case "store: save->load->save byte-identical" `Quick
      test_store_roundtrip_bytes;
    Alcotest.test_case "store: file round-trip" `Quick
      test_store_file_roundtrip;
    Alcotest.test_case "store: malformed inputs fail loudly" `Quick
      test_store_malformed;
    Alcotest.test_case "store: label-set validation" `Quick
      test_store_validation;
    Alcotest.test_case "store: v2 round-trip, every sketch family" `Quick
      test_store_v2_all_families;
    Alcotest.test_case "store: v1 snapshots still load" `Quick
      test_store_v1_compat;
    Alcotest.test_case "store: mapped loader rejects malformed input" `Quick
      test_store_mmap_malformed;
    Alcotest.test_case "store: fnv1a64 known answers" `Quick
      test_fnv1a64_known_answers;
    Alcotest.test_case "store: golden digest per family and version" `Quick
      test_store_golden_digests;
    Alcotest.test_case "store: fnv1a64 allocates nothing per byte" `Quick
      test_fnv1a64_zero_alloc;
    Alcotest.test_case "store: mmap oracle = heap oracle, all families" `Slow
      test_store_mmap_matches_heap;
    Alcotest.test_case "oracle = Label.query, all families x k" `Slow
      test_oracle_matches_label_query;
    Alcotest.test_case "oracle from snapshot = oracle from labels" `Quick
      test_oracle_from_store_matches;
    Alcotest.test_case "oracle bunch_dist = label bunch_dist" `Quick
      test_oracle_bunch_dist;
    Alcotest.test_case "oracle size accounting" `Quick test_oracle_size_words;
    Alcotest.test_case "probed query agrees, counts work" `Quick
      test_oracle_probes;
    Alcotest.test_case "oracle input validation" `Quick test_oracle_validation;
    Alcotest.test_case "batch answers independent of pool size" `Quick
      test_batch_pool_size_independent;
    Alcotest.test_case "run_batch stats sane" `Quick test_run_batch_stats;
    Alcotest.test_case "workload: uniform" `Quick test_workload_uniform;
    Alcotest.test_case "workload: zipf hotspots" `Quick test_workload_zipf;
    Alcotest.test_case "workload: pairs-file round-trip" `Quick
      test_workload_pairs_file;
    Alcotest.test_case "workload: kind parsing" `Quick
      test_workload_kind_of_string;
  ]
