(* Pipeline benchmark: one streaming_sparse graph driven end to end
   through the public API — Gen.streaming_sparse -> Build.run ->
   Sketch_store.save -> Sketch_store.load (heap and mmap) ->
   Oracle.of_store / Oracle.query -> Serve.run — with every timed
   answer verified.

   Every workload runs the whole pipeline, so every workload reports
   every end-to-end metric; the workload fixes the query stream, the
   hot-pair cache and where the measured time goes:

   - build: the three builds are repeated for --seconds, then a
     shorter uniform, cache-off serve (0.4 of --seconds). Message plane
     and protocols do the work.
   - serve-uniform: the builds are set-up, three times through the
     run; --seconds go to closed- and open-loop serving of a uniform
     stream with the cache off, so every answer runs an estimator
     kernel on the snapshot.
   - serve-zipf: as serve-uniform over a Zipf(1.2) stream with a 2^16
     slot cache per worker: the cache and block admission dominate and
     kernels run only on misses. Together with serve-uniform it shows
     a change to the Serve loop on both sides of its cache.

   --trace 0 prints the end-to-end metrics. --trace 1 runs the same
   pass twice, traced then untraced (spans around every call into a
   layer, Ds_congest.Trace and Ds_obs.Obs attached), prints per-layer
   metrics and a ledger of per-layer self time that sums to the traced
   pass's wall time, and writes the spans to perfbench/out/. Run it
   through perfbench/run.py, which builds it first. *)

module Json = Ds_util.Json
module Rng = Ds_util.Rng
module Mem = Ds_util.Mem
module Graph = Ds_graph.Graph
module Gen = Ds_graph.Gen
module Dijkstra = Ds_graph.Dijkstra
module Dist = Ds_graph.Dist
module Pool = Ds_parallel.Pool
module Metrics = Ds_congest.Metrics
module Trace = Ds_congest.Trace
module Family = Ds_sketch.Family
module Sketch = Ds_sketch.Sketch
module Build = Ds_sketch.Build
module Store = Ds_oracle.Sketch_store
module Oracle = Ds_oracle.Oracle
module Serve = Ds_oracle.Serve
module Workload = Ds_oracle.Workload
module Obs = Ds_obs.Obs
module Sampler = Ds_obs.Sampler

(* ---- Fixed inputs ------------------------------------------------ *)

(* n = 5000 keeps one round of the three builds near 4 s on a 2-core
   host, so each run can repeat its set-up and builds and report
   medians, while the tz and landmark snapshots (~2.9 and ~3.2 MB) stay
   larger than a 2 MiB per-core L2. *)
let n = 5_000
let avg_degree = 8.0
let k = 4
let families = Family.all

let zipf_alpha = 1.2
let zipf_cache_bits = 16
let graph_reps = 15
let ttfq_copies = 4
let ttfq_heap_children = 6
let ttfq_mmap_children = 12
let ttfq_heap_reps = 1
let ttfq_mmap_reps = 3
let min_rounds = 3
let verify_sources = 16
let heap_check_pairs = 200_000
let kernel_pairs = 200_000
let kernel_reps = 3
let probe_pairs = 10_000
let obs_ab_pairs = 10
let obs_pairs = 500_000

let now_ns = Trace.now_ns
let secs ns = float_of_int ns /. 1e9
let nproc = Domain.recommended_domain_count ()
let serve_workers = min 2 nproc

let median_f xs = Ds_util.Stats.median (Array.of_list xs)
let median_i xs = median_f (List.map float_of_int xs)
let mean_i xs = Ds_util.Stats.mean (Array.of_list (List.map float_of_int xs))

(* ---- Spans and the per-layer ledger ------------------------------ *)

let layers =
  [ "bench"; "ds_graph"; "ds_congest"; "ds_sketch"; "ds_oracle";
    "ds_parallel"; "ds_obs" ]

type span = {
  id : int;
  parent : int;  (** -1 for a top-level span *)
  layer : string;
  name : string;
  start_ns : int;
  dur_ns : int;
  derived : bool;
      (** a sum reported by the engine's tracer, placed inside the
          span that was open when it was read *)
}

let tracing = ref false
let spans : span list ref = ref []
let next_id = ref 0
let current = ref (-1)

(* [span layer name f] times [f ()] as one call into [layer] when the
   pass is traced, and is just [f ()] otherwise. *)
let span layer name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let t0 = now_ns () in
    Fun.protect f ~finally:(fun () ->
        let t1 = now_ns () in
        current := parent;
        spans :=
          { id; parent; layer; name; start_ns = t0; dur_ns = t1 - t0;
            derived = false }
          :: !spans)
  end

let derived_span layer name dur_ns =
  if !tracing then begin
    let id = !next_id in
    incr next_id;
    spans :=
      { id; parent = !current; layer; name; start_ns = now_ns () - dur_ns;
        dur_ns; derived = true }
      :: !spans
  end

(* Top-level steps of a pass, timed in every pass so a traced pass can
   be set against its untraced twin step by step. *)
let phases : (string * int) list ref = ref []

let phase name f =
  let t0 = now_ns () in
  let r = span "bench" name f in
  phases := (name, now_ns () - t0) :: !phases;
  r

(* Self time = duration minus the children's durations. Spans come
   from one thread and nest, so children never overlap and their
   durations are exactly the covered part of the parent. *)
let ledger spans ~wall_ns =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (s.dur_ns + Option.value ~default:0 (Hashtbl.find_opt child s.parent)))
    spans;
  let self = Hashtbl.create 8 in
  List.iter (fun l -> Hashtbl.replace self l 0) layers;
  let negative = ref 0 in
  List.iter
    (fun s ->
      let own = s.dur_ns - Option.value ~default:0 (Hashtbl.find_opt child s.id) in
      if own < 0 then incr negative;
      Hashtbl.replace self s.layer (Hashtbl.find self s.layer + own))
    spans;
  let rows = List.map (fun l -> (l, Hashtbl.find self l)) layers in
  let attributed = List.fold_left (fun acc (_, v) -> acc + v) 0 rows in
  (rows, wall_ns - attributed, !negative)

let span_json s =
  Json.Obj
    [ ("id", Json.Int s.id); ("parent", Json.Int s.parent);
      ("layer", Json.String s.layer); ("name", Json.String s.name);
      ("start_ns", Json.Int s.start_ns);
      ("end_ns", Json.Int (s.start_ns + s.dur_ns));
      ("derived", Json.Bool s.derived) ]

(* ---- Correctness accounting -------------------------------------- *)

let attempted = ref 0
let failed = ref 0

let fail_msg fmt = Printf.ksprintf (fun s -> prerr_endline ("FAIL: " ^ s)) fmt

(* [tally ~ops ~bad what] books [ops] checked operations of which
   [bad] failed. *)
let tally ~ops ~bad what =
  attempted := !attempted + ops;
  failed := !failed + bad;
  if bad > 0 then fail_msg "%s: %d of %d failed" what bad ops

let check ok what = tally ~ops:1 ~bad:(if ok then 0 else 1) what

(* Compare an answer array with the reference, counting every slot. *)
let check_answers what ~reference answers =
  let m = Array.length answers in
  let bad = ref 0 in
  for i = 0 to m - 1 do
    if answers.(i) <> reference.(i) then begin
      if !bad < 3 then fail_msg "%s: pair %d answered %d, expected %d" what i
          answers.(i) reference.(i);
      incr bad
    end
  done;
  tally ~ops:m ~bad:!bad what

(* ---- Workloads --------------------------------------------------- *)

type workload = {
  name : string;
  stream : Workload.kind;
  cache_bits : int;
  build_share : float;
      (** share of --seconds spent re-running the builds; 0 = the
          builds run once, as set-up *)
  serve_share : float;  (** share of --seconds spent serving *)
  closed_pairs : int;
      (** stream length of one closed-loop run; the cache makes Zipf
          serving fast, so its stream is twice as long *)
  rates : (string * float * int) list;
      (** open-loop runs on the tz snapshot: label, offered pairs/s and
          pairs served (0.8 s at the low rate, 0.5 s or less at the
          high), long enough that one host stall of tens of ms stays
          below p90 *)
}

(* Zipf rates are about 5 % and 20 % of closed-loop capacity. With the
   cache off the kernels cap capacity near 3e6/s, and near half that
   when a neighbour takes one of the host's two cores, so the uniform
   rates stay at or below 15 % of it: closer to saturation p90 only
   measures the host's stalls. *)
let uniform_rates = [ ("low", 2.5e5, 200_000); ("high", 5e5, 250_000) ]
let zipf_rates = [ ("low", 5e5, 400_000); ("high", 2e6, 700_000) ]

let workloads =
  [
    { name = "build"; stream = Workload.Uniform; cache_bits = 0;
      build_share = 1.0; serve_share = 0.4; closed_pairs = 750_000;
      rates = uniform_rates };
    { name = "serve-uniform"; stream = Workload.Uniform; cache_bits = 0;
      build_share = 0.0; serve_share = 1.0; closed_pairs = 750_000;
      rates = uniform_rates };
    { name = "serve-zipf"; stream = Workload.Zipf { alpha = zipf_alpha };
      cache_bits = zipf_cache_bits; build_share = 0.0; serve_share = 1.0;
      closed_pairs = 1_500_000; rates = zipf_rates };
  ]

(* How many rounds each timed phase runs: set by the time budget in an
   end-to-end run, fixed in a traced run so that its traced and
   untraced passes do equal work. *)
type plan = { build_rounds : int; closed_rounds : int; open_rounds : int }

(* ---- One pass of the pipeline ------------------------------------ *)

type gc_delta = { heap_peak_words : int; minor_words : float; majors : int }

type engine_stats = {
  deliver_ns : int;
  compute_ns : int;
  profile : Trace.profile;
  gc : gc_delta;
}

type built = {
  fam : Family.t;
  result : Build.result;
  build_ns : int;
  save_ns : int;
  bytes : int;
  path : string;
  engine : engine_stats option;  (** traced pass only *)
}

type closed_run = { qps : float; hit_rate : float; busy_frac : float; skew : float }

type open_run = {
  p50 : float;
  p90 : float;
  p99 : float;
  p999 : float;
  lag_ms : float;
  block_p50_ns : int;  (** traced pass only *)
  backlog_max : int;  (** traced pass only *)
}

type verified = {
  mutable pairs : int;
  mutable violations : int;
  mutable underestimates : int;
  mutable unanswered : int;  (** no finite estimate *)
  mutable ratio_sum : float;  (** over finite estimates *)
  mutable ratio_max : float;
}

type pass = {
  wall_ns : int;
  plan : plan;
  gen_ns : int list;
  graph_m : int;
  setup_ns : float;
  rounds : (Family.t * int * int) list list;
      (** build rounds, oldest first: family, build ns, save ns *)
  built : built list;  (** the first build round, whose snapshots are served *)
  hwm_kb : int;
  load_heap_ns : (Family.t * int list) list;
      (** TTFQ parts and totals: one median per child process *)
  load_mmap_ns : (Family.t * int list) list;
  ttfq_heap_ns : (Family.t * int list) list;
  ttfq_mmap_ns : (Family.t * int list) list;
  of_store_ns : (Family.t * int list) list;
  first_query_ns : (Family.t * int list) list;
  closed : (Family.t * closed_run list) list;
  opened : (string * open_run list) list;
  stretch : (Family.t * verified) list;
  serving : (Family.t * Oracle.t) list;  (** mmap-backed oracles *)
}

let gc_measure f =
  span "bench" "Gc.full_major" Gc.full_major;
  let heap () = (Gc.quick_stat ()).Gc.heap_words in
  let base = heap () in
  let peak = ref base in
  let note () =
    let h = heap () in
    if h > !peak then peak := h
  in
  let alarm = Gc.create_alarm note in
  let minor0 = Gc.minor_words () in
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let r = Fun.protect f ~finally:(fun () -> Gc.delete_alarm alarm) in
  note ();
  ( r,
    { heap_peak_words = !peak - base; minor_words = Gc.minor_words () -. minor0;
      majors = (Gc.quick_stat ()).Gc.major_collections - majors0 } )

let engine_sums t =
  List.fold_left
    (fun (d, c) (row : Trace.round) -> (d + row.delivery_ns, c + row.compute_ns))
    (0, 0) (Trace.rows t)

let build_family ~dir ~round ~seed g fam =
  let traced = !tracing in
  let tracer = if traced then Some (Trace.create ()) else None in
  let obs = if traced then Some (Obs.create ()) else None in
  let run () =
    let t0 = now_ns () in
    let r, sums =
      span "ds_sketch" ("Build.run." ^ Family.name fam) (fun () ->
          let r =
            Build.run ~pool:Pool.sequential ?tracer ?obs ~family:fam g ~k ~seed
          in
          (* The engine's own delivery and compute time, charged to
             ds_congest inside the Build.run span. *)
          let sums = Option.map engine_sums tracer in
          Option.iter
            (fun (d, c) ->
              derived_span "ds_congest" "Engine.deliver" d;
              derived_span "ds_congest" "Engine.compute" c)
            sums;
          (r, sums))
    in
    (r, sums, now_ns () - t0)
  in
  let (result, sums, build_ns), gc =
    if traced then gc_measure run
    else (run (), { heap_peak_words = 0; minor_words = 0.; majors = 0 })
  in
  check true ("build " ^ Family.name fam);
  let path =
    Filename.concat dir
      (if round = 0 then Family.name fam ^ ".dsk"
       else Printf.sprintf "%s.r%d.dsk" (Family.name fam) round)
  in
  let store = Store.v ~seed ~graph_family:"streaming_sparse" result.Build.sketch in
  let t0 = now_ns () in
  span "ds_oracle" "Sketch_store.save" (fun () -> Store.save path store);
  let save_ns = now_ns () - t0 in
  let bytes = (Unix.stat path).Unix.st_size in
  let engine =
    match (tracer, sums) with
    | Some t, Some (deliver_ns, compute_ns) ->
      Some { deliver_ns; compute_ns; profile = Trace.profile t; gc }
    | _ -> None
  in
  { fam; result; build_ns; save_ns; bytes; path; engine }

let build_round ~dir ~round ~seed g =
  span "bench" "build_round" (fun () -> List.map (build_family ~dir ~round ~seed g) families)

(* A round is kept as its timings; only the first round's sketches stay
   live, so peak memory does not grow with the number of rounds. *)
let round_times r = List.map (fun b -> (b.fam, b.build_ns, b.save_ns)) r
let round_ns r = List.fold_left (fun acc (_, b, s) -> acc + b + s) 0 r

(* Time to first query runs in a fresh process, as a restart would:
   the parent's own heap (graph, sketches, streams) would otherwise
   make the loads pay for collecting data they never touch. The child
   loads each snapshot [reps] times, families interleaved, and prints
   one line per load: load, of_store and first-query ns, then the
   answer. *)
let ttfq_child_main argv =
  let mode = if argv.(2) = "mmap" then Store.Mmap else Store.Heap in
  let reps = int_of_string argv.(3) in
  let u = int_of_string argv.(4) and v = int_of_string argv.(5) in
  let paths = Array.to_list (Array.sub argv 6 (Array.length argv - 6)) in
  for _ = 1 to reps do
    List.iter
      (fun path ->
        let t0 = now_ns () in
        let st = Store.load ~mode path in
        let t1 = now_ns () in
        let o = Oracle.of_store st in
        let t2 = now_ns () in
        let d = Oracle.query o u v in
        let t3 = now_ns () in
        Printf.printf "%d %d %d %d\n" (t1 - t0) (t2 - t1) (t3 - t2) d)
      paths
  done

(* The cores of a shared host can run at different speeds, and a child
   tends to start on its parent's core, so when a pinning tool is given
   the children are pinned to the allowed cores in turn. *)
let pin_tool = ref ""
let pin_cpus : string list ref = ref []

let ttfq_in_child ~child mode reps (u, v) files =
  let exe = Sys.executable_name in
  let args =
    [ exe; "--ttfq-child"; Store.mode_name mode; string_of_int reps; string_of_int u;
      string_of_int v ]
    @ List.map snd files
  in
  let prog, args =
    match !pin_cpus with
    | [] -> (exe, args)
    | cpus ->
      (!pin_tool, [ !pin_tool; "-c"; List.nth cpus (child mod List.length cpus) ] @ args)
  in
  (* The child's own load, wrap and query times are charged to
     ds_oracle inside the span of the process that ran them. *)
  let rows =
    span "bench" ("ttfq.process." ^ Store.mode_name mode) (fun () ->
        let ic = Unix.open_process_args_in prog (Array.of_list args) in
        let out = In_channel.input_all ic in
        (match Unix.close_process_in ic with
        | Unix.WEXITED 0 -> ()
        | _ -> failwith "ttfq child process failed");
        let rows =
          List.filter_map
            (fun l ->
              match List.map int_of_string_opt (String.split_on_char ' ' l) with
              | [ Some a; Some b; Some c; Some d ] -> Some (a, b, c, d)
              | _ -> None)
            (String.split_on_char '\n' out)
        in
        let sum sel = List.fold_left (fun acc r -> acc + sel r) 0 rows in
        derived_span "ds_oracle" ("Sketch_store.load." ^ Store.mode_name mode)
          (sum (fun (a, _, _, _) -> a));
        derived_span "ds_oracle" "Oracle.of_store" (sum (fun (_, b, _, _) -> b));
        derived_span "ds_oracle" "Oracle.query" (sum (fun (_, _, c, _) -> c));
        rows)
  in
  let fams = Array.of_list (List.map fst files) in
  if List.length rows <> reps * Array.length fams then failwith "ttfq child: short output";
  let rows = Array.of_list rows in
  List.map
    (fun f ->
      ( f,
        List.filteri (fun i _ -> fams.(i mod Array.length fams) = f) (Array.to_list rows) ))
    families

let reference_answers pool o flat =
  span "ds_oracle" "Oracle.query" (fun () ->
      let ans = Array.make (Array.length flat / 2) 0 in
      Pool.parallel_for pool ~lo:0 ~hi:(Array.length ans) (fun i ->
          ans.(i) <- Oracle.query o flat.(2 * i) flat.((2 * i) + 1));
      ans)

let serve ?obs ?sampler pool o config flat =
  span "ds_oracle" "Serve.run" (fun () -> Serve.run ~pool ~config ?obs ?sampler o flat)

(* Exact distances from a seeded sample of sources: tz must satisfy
   d <= d^ <= (2k-1) d, landmark and bottom-k d^ >= d. Stretch is
   averaged over the pairs with a finite estimate. *)
let verify_stretch ~seed g oracles =
  let rng = Rng.create (seed + 2_000_003) in
  let sources = Rng.sample_without_replacement rng verify_sources n in
  let acc =
    List.map
      (fun (f, _) ->
        (f, { pairs = 0; violations = 0; underestimates = 0; unanswered = 0;
              ratio_sum = 0.; ratio_max = 0. }))
      oracles
  in
  Array.iter
    (fun s ->
      let dist = span "ds_graph" "Dijkstra.sssp" (fun () -> Dijkstra.sssp g ~src:s) in
      List.iter
        (fun (f, o) ->
          let r = List.assoc f acc in
          let est =
            span "ds_oracle" "Oracle.query" (fun () ->
                Array.init n (fun v -> if v = s then 0 else Oracle.query o s v))
          in
          for v = 0 to n - 1 do
            if v <> s then begin
              let d = dist.(v) and e = est.(v) in
              r.pairs <- r.pairs + 1;
              if e < d then r.underestimates <- r.underestimates + 1;
              if f = Family.Tz && e > ((2 * k) - 1) * d then
                r.violations <- r.violations + 1;
              if not (Dist.is_finite e) then r.unanswered <- r.unanswered + 1
              else begin
                let ratio = float_of_int e /. float_of_int d in
                r.ratio_sum <- r.ratio_sum +. ratio;
                r.ratio_max <- Float.max r.ratio_max ratio
              end
            end
          done)
        oracles)
    sources;
  List.iter
    (fun (f, r) ->
      tally ~ops:r.pairs ~bad:(r.violations + r.underestimates) ("stretch bound " ^ Family.name f))
    acc;
  acc

(* Run [step] until [budget_ns] is spent, at least [min_rounds] times;
   a replayed pass runs it exactly [planned] times instead. *)
let repeat ?planned ~min_rounds ~budget_ns step =
  let t0 = now_ns () in
  let rec go acc i =
    let acc = step () :: acc in
    let more =
      match planned with
      | Some p -> i + 1 < p
      | None -> i + 1 < min_rounds || float_of_int (now_ns () - t0) < budget_ns
    in
    if more then go acc (i + 1) else List.rev acc
  in
  go [] 0

let run_pass ~wl ~seed ~seconds ~dir ?plan () =
  let budget share = share *. float_of_int seconds *. 1e9 in
  let wall0 = now_ns () in
  let gen_ns = ref [] and rounds = ref [] and setups = ref [] in
  let built = ref [] and hwm_kb = ref 0 in
  let gen () =
    let t0 = now_ns () in
    let g =
      span "ds_graph" "Gen.streaming_sparse" (fun () ->
          Gen.streaming_sparse ~rng:(Rng.create seed) ~n ~avg_degree ())
    in
    gen_ns := (now_ns () - t0) :: !gen_ns;
    g
  in
  (* Later rounds save to their own files, so the first round's
     snapshots, the ones served, stay untouched. Peak memory is read
     after the first round: one round of builds on a fresh heap. *)
  let build g =
    let round = List.length !rounds in
    let r = build_round ~dir ~round ~seed g in
    if round = 0 then begin
      built := r;
      hwm_kb := Mem.hwm_kb_or_zero ()
    end;
    rounds := round_times r :: !rounds
  in
  (* serve-*: a set-up is the graph and its three snapshots, built with
     the code under test; set-up time is the median of three
     set-ups, spread through the run (first, after ttfq.before, after
     serve.closed) to sample the host's drifting speed at several
     times. *)
  let set_up name =
    phase name @@ fun () ->
    let t0 = now_ns () in
    let g = gen () in
    build g;
    setups := (now_ns () - t0) :: !setups;
    g
  in
  let builds_in_setup = wl.build_share = 0. in
  (* build: set-up is the graph alone; then the builds repeat. *)
  let g =
    if builds_in_setup then set_up "setup"
    else begin
      let g = phase "setup" (fun () -> List.hd (List.init graph_reps (fun _ -> gen ()))) in
      phase "build" (fun () ->
          ignore
            (repeat ?planned:(Option.map (fun p -> p.build_rounds) plan) ~min_rounds
               ~budget_ns:(budget wl.build_share) (fun () -> build g)));
      g
    end
  in
  let last = !built in
  let built_oracles = List.map (fun b -> (b.fam, Oracle.of_sketch b.result.Build.sketch)) last in
  (* The query stream, and the reference answers every timed answer is
     checked against. *)
  (* Worker domains live only while a phase needs them, so no build
     shares the process with idle domains. *)
  let with_pool f =
    let pool = span "ds_parallel" "Pool.create" (fun () -> Pool.create ~domains:serve_workers ()) in
    Fun.protect
      ~finally:(fun () -> span "ds_parallel" "Pool.shutdown" (fun () -> Pool.shutdown pool))
      (fun () -> f pool)
  in
  let flat, reference =
    phase "stream" @@ fun () ->
    let flat =
      span "ds_oracle" "Workload.pairs_flat" (fun () ->
          Workload.pairs_flat ~rng:(Rng.create (seed + 1_000_003)) wl.stream ~n
            ~count:wl.closed_pairs)
    in
    ( flat,
      with_pool (fun pool ->
          List.map (fun (f, o) -> (f, reference_answers pool o flat)) built_oracles) )
  in
  let first = (flat.(0), flat.(1)) in
  (* Load cost depends on how the page cache holds a file, which
     differs from one written file to the next, so each snapshot is
     saved ttfq_copies times and the loads of all copies pooled. A
     restart finds the files written back to disk. *)
  let ttfq_files =
    phase "ttfq.files" @@ fun () ->
      List.concat_map
        (fun b ->
          let store = Store.v ~seed ~graph_family:"streaming_sparse" b.result.Build.sketch in
          List.init ttfq_copies (fun i ->
              let path =
                if i = 0 then b.path
                else Printf.sprintf "%s.%d.dsk" (Filename.chop_suffix b.path ".dsk") i
              in
              if i > 0 then span "ds_oracle" "Sketch_store.save" (fun () -> Store.save path store);
              let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
              Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd);
              (b.fam, path)))
      last
  in
  (* Each child gives a median per family; the run reports the mean over
     children, which are spread over the cores (pin_cpus) and, in two
     halves, over time: one before serving and one after, since the
     host's speed drifts over seconds. *)
  let ttfq_half name =
    phase name @@ fun () ->
    let run mode children reps =
      let children =
        List.init children (fun child ->
            List.map
              (fun (f, rows) ->
                let expect = (List.assoc f reference).(0) in
                let bad = List.length (List.filter (fun (_, _, _, d) -> d <> expect) rows) in
                tally ~ops:(List.length rows) ~bad
                  ("first query " ^ Store.mode_name mode ^ " " ^ Family.name f);
                let med sel = int_of_float (median_i (List.map sel rows)) in
                ( f,
                  ( med (fun (a, _, _, _) -> a),
                    med (fun (_, b, _, _) -> b),
                    med (fun (_, _, c, _) -> c),
                    med (fun (a, b, c, _) -> a + b + c) ) ))
              (ttfq_in_child ~child mode reps first ttfq_files))
      in
      List.map (fun f -> (f, List.map (List.assoc f) children)) families
    in
    let m = run Store.Mmap (ttfq_mmap_children / 2) ttfq_mmap_reps in
    (m, run Store.Heap (ttfq_heap_children / 2) ttfq_heap_reps)
  in
  let ttfq_before = ttfq_half "ttfq.before" in
  if builds_in_setup then ignore (set_up "setup.2");
  let pick sel l = List.map (fun (f, ts) -> (f, List.map sel ts)) l in
  let load mode b =
    span "ds_oracle" ("Sketch_store.load." ^ Store.mode_name mode) (fun () ->
        let st = Store.load ~mode b.path in
        (b.fam, (st, Oracle.of_store st)))
  in
  let mmap_stores = List.map (load Store.Mmap) last in
  let heap_stores = List.map (load Store.Heap) last in
  let serving =
    List.map (fun f -> (f, snd (List.assoc f mmap_stores))) families
  in
  (* Reloaded snapshots must equal the built sketches, and heap- and
     mmap-loaded oracles must answer identically. *)
  phase "verify.reload" (fun () ->
      List.iter
        (fun b ->
          let sk = b.result.Build.sketch in
          let hs, _ = List.assoc b.fam heap_stores and ms, _ = List.assoc b.fam mmap_stores in
          span "ds_sketch" "Sketch.equal" (fun () ->
              check (Sketch.equal hs.Store.sketch sk) ("heap reload equal " ^ Family.name b.fam);
              check (Sketch.equal ms.Store.sketch sk) ("mmap reload equal " ^ Family.name b.fam)))
        last;
      let prefix = Array.sub flat 0 (2 * heap_check_pairs) in
      List.iter
        (fun f ->
          let _, ho = List.assoc f heap_stores in
          let ha =
            span "ds_oracle" "Oracle.query_batch_flat" (fun () ->
                Oracle.query_batch_flat ho prefix)
          in
          let ma =
            span "ds_oracle" "Oracle.query_batch_flat" (fun () ->
                Oracle.query_batch_flat (List.assoc f serving) prefix)
          in
          check_answers ("heap vs mmap " ^ Family.name f) ~reference:ma ha;
          check_answers ("heap vs built " ^ Family.name f)
            ~reference:(Array.sub (List.assoc f reference) 0 heap_check_pairs) ha)
        families);
  (* Serving. *)
  let config rate = { Serve.default_config with cache_bits = wl.cache_bits; rate } in
  let fresh_obs () =
    if !tracing then Some (span "ds_obs" "Obs.create" (fun () -> Obs.create ())) else None
  in
  let serve_budget = budget wl.serve_share /. 2. in
  let serve_closed pool f o =
    let obs = fresh_obs () in
    let ans, st = serve ?obs pool o (config 0.) flat in
    check_answers ("serve closed " ^ Family.name f) ~reference:(List.assoc f reference) ans;
    let busy = Array.fold_left (fun acc w -> acc +. w.Serve.busy_ns) 0. st.Serve.per_worker in
    let wq = Array.map (fun w -> w.Serve.worker_qps) st.Serve.per_worker in
    { qps = st.Serve.qps; hit_rate = st.Serve.hit_rate;
      busy_frac = busy /. (float_of_int st.Serve.workers *. st.Serve.elapsed_ns);
      skew = Array.fold_left max 0. wq /. Float.max 1e-9 (Array.fold_left min infinity wq) }
  in
  let closed_rounds =
    with_pool @@ fun pool ->
    (* Warm-up, untimed: first touch of the mapped pages and the pool. *)
    phase "serve.warmup" (fun () ->
        let warm = Array.sub flat 0 (2 * heap_check_pairs) in
        List.iter
          (fun (f, o) ->
            let ans, _ = serve pool o (config 0.) warm in
            check_answers ("serve warm-up " ^ Family.name f)
              ~reference:(Array.sub (List.assoc f reference) 0 heap_check_pairs) ans)
          serving);
    phase "serve.closed" @@ fun () ->
    repeat ?planned:(Option.map (fun p -> p.closed_rounds) plan) ~min_rounds
      ~budget_ns:serve_budget (fun () ->
        List.map (fun (f, o) -> (f, serve_closed pool f o)) serving)
  in
  (* Open loop on the tz snapshot, each rate over a prefix of the
     stream. The traced pass also reads the block-latency histogram and
     derives the backlog (arrived minus served) from 1 ms obs samples. *)
  if builds_in_setup then ignore (set_up "setup.3");
  let tz = List.assoc Family.Tz serving in
  let tz_ref = List.assoc Family.Tz reference in
  let serve_open pool (label, rate, count) =
    let sub = Array.sub flat 0 (2 * count) in
    let obs = fresh_obs () in
    let sampler =
      Option.map
        (fun o -> span "ds_obs" "Sampler.create" (fun () -> Sampler.create ~interval_ms:1 o))
        obs
    in
    let ans, st = serve ?obs ?sampler pool tz (config rate) sub in
    check_answers ("serve open " ^ label) ~reference:(Array.sub tz_ref 0 count) ans;
    let block_p50_ns, backlog_max =
      match (obs, sampler) with
      | Some o, Some s ->
        span "ds_obs" "Obs.read" (fun () ->
            let h = Obs.hist_value (Obs.histogram o Obs.Name.serve_block_ns) in
            let backlog =
              List.fold_left
                (fun acc (p : Sampler.point) ->
                  let served =
                    Option.value ~default:0 (List.assoc_opt Obs.Name.serve_served p.counters)
                  in
                  let arrived =
                    min count (int_of_float (float_of_int p.elapsed_ns *. rate /. 1e9))
                  in
                  max acc (arrived - served))
                0 (Sampler.points s)
            in
            (Obs.hist_percentile h 50., backlog))
      | _ -> (0, 0)
    in
    let l = st.Serve.latency_ns in
    ( label,
      { p50 = l.Serve.p50; p90 = l.Serve.p90; p99 = l.Serve.p99; p999 = l.Serve.p999;
        lag_ms = (st.Serve.elapsed_ns -. (float_of_int count /. rate *. 1e9)) /. 1e6;
        block_p50_ns; backlog_max } )
  in
  let open_rounds =
    with_pool @@ fun pool ->
    phase "serve.open" @@ fun () ->
    repeat ?planned:(Option.map (fun p -> p.open_rounds) plan) ~min_rounds
      ~budget_ns:serve_budget (fun () -> List.map (serve_open pool) wl.rates)
  in
  let mmap_t, heap_t =
    let (m1, h1), (m2, h2) = (ttfq_before, ttfq_half "ttfq.after") in
    let join a b = List.map (fun (f, xs) -> (f, xs @ List.assoc f b)) a in
    (join m1 m2, join h1 h2)
  in
  let stretch = phase "verify.stretch" (fun () -> verify_stretch ~seed g built_oracles) in
  {
    wall_ns = now_ns () - wall0;
    plan =
      { build_rounds = List.length !rounds; closed_rounds = List.length closed_rounds;
        open_rounds = List.length open_rounds };
    gen_ns = List.rev !gen_ns;
    graph_m = Graph.m g;
    setup_ns = median_i (if builds_in_setup then !setups else !gen_ns);
    rounds = List.rev !rounds;
    built = last;
    hwm_kb = !hwm_kb;
    load_mmap_ns = pick (fun (a, _, _, _) -> a) mmap_t;
    load_heap_ns = pick (fun (a, _, _, _) -> a) heap_t;
    of_store_ns = pick (fun (_, b, _, _) -> b) mmap_t;
    first_query_ns = pick (fun (_, _, c, _) -> c) mmap_t;
    ttfq_mmap_ns = pick (fun (_, _, _, t) -> t) mmap_t;
    ttfq_heap_ns = pick (fun (_, _, _, t) -> t) heap_t;
    closed = List.map (fun f -> (f, List.map (List.assoc f) closed_rounds)) families;
    opened = List.map (fun (l, _, _) -> (l, List.map (List.assoc l) open_rounds)) wl.rates;
    stretch; serving;
  }

(* ---- Metrics ----------------------------------------------------- *)

type value = Num of float | Count of int

let metric name unit v = (name, unit, v)

let sum_fam f l = List.fold_left (fun acc (_, xs) -> acc +. f xs) 0. l

let end_to_end ~wl p =
  let last = p.built in
  let build_s = median_f (List.map (fun r -> secs (round_ns r)) p.rounds) in
  let messages = List.fold_left (fun acc b -> acc + Metrics.messages b.result.Build.metrics) 0 last in
  let bytes = List.fold_left (fun acc b -> acc + b.bytes) 0 last in
  let open_med label sel = median_f (List.map sel (List.assoc label p.opened)) /. 1e3 in
  let finite, ratio_sum =
    List.fold_left
      (fun (np, s) (_, r) -> (np + r.pairs - r.unanswered, s +. r.ratio_sum))
      (0, 0.) p.stretch
  in
  [
    metric "setup_s" "s" (Num (p.setup_ns /. 1e9));
    metric "build_s" "s" (Num build_s);
    metric "build_messages" "count" (Count messages);
    metric "build_peak_rss_mb" "MB" (Num (float_of_int p.hwm_kb /. 1024.));
    metric "snapshot_bytes_per_node" "B" (Num (float_of_int bytes /. float_of_int n));
    metric "ttfq_mmap_ms" "ms" (Num (sum_fam mean_i p.ttfq_mmap_ns /. 1e6));
    metric "ttfq_heap_ms" "ms" (Num (sum_fam mean_i p.ttfq_heap_ns /. 1e6));
  ]
  @ List.map
      (fun (f, runs) ->
        metric ("serve_qps." ^ Family.name f) "pairs/s"
          (Num (median_f (List.map (fun r -> r.qps) runs))))
      p.closed
  @ List.concat_map
      (fun (label, _, _) ->
        [ metric ("serve_p50_us." ^ label) "us" (Num (open_med label (fun r -> r.p50)));
          metric ("serve_p90_us." ^ label) "us" (Num (open_med label (fun r -> r.p90))) ])
      wl.rates
  @ [
      metric "stretch_mean" "ratio" (Num (ratio_sum /. float_of_int finite));
      metric "verified_frac" "ratio"
        (Num (float_of_int (!attempted - !failed) /. float_of_int (max 1 !attempted)));
    ]

(* Kernel cost on a uniform stream, sequential, off the serving path. *)
let kernel_metrics ~seed serving =
  let flat =
    Workload.pairs_flat ~rng:(Rng.create (seed + 3_000_017)) Workload.Uniform ~n
      ~count:kernel_pairs
  in
  List.concat_map
    (fun (f, o) ->
      let times =
        List.init kernel_reps (fun _ ->
            let t0 = now_ns () in
            ignore (Oracle.query_batch_flat o flat);
            float_of_int (now_ns () - t0) /. float_of_int kernel_pairs)
      in
      let probes = ref 0 in
      for i = 0 to probe_pairs - 1 do
        let _, p = Oracle.query_probes o flat.(2 * i) flat.((2 * i) + 1) in
        probes := !probes + p
      done;
      [ metric ("kernel.ns_per_pair." ^ Family.name f) "ns" (Num (median_f times));
        metric ("kernel.probes_per_pair." ^ Family.name f) "count"
          (Num (float_of_int !probes /. float_of_int probe_pairs)) ])
    serving

(* The same builds on a pool of serve_workers domains; reported, not
   gated, because the scheduler sets their spread. *)
let two_domain_builds ~seed =
  let g = Gen.streaming_sparse ~rng:(Rng.create seed) ~n ~avg_degree () in
  Pool.with_pool ~domains:serve_workers (fun pool ->
      List.map
        (fun f ->
          let t0 = now_ns () in
          ignore (Build.run ~pool ~family:f g ~k ~seed);
          metric ("build.s_2dom." ^ Family.name f) "s" (Num (secs (now_ns () - t0))))
        families)

(* Serve.run with obs and a sampler against without, alternating
   which runs first; overhead of the medians. *)
(* Serve.run with obs and a sampler against without, in pairs whose
   order alternates; the overhead is the median of the per-pair ratios,
   which cancels drift slower than one pair. *)
let obs_overhead ~wl ~seed o =
  let flat =
    Workload.pairs_flat ~rng:(Rng.create (seed + 1_000_003)) wl.stream ~n ~count:obs_pairs
  in
  let config = { Serve.default_config with cache_bits = wl.cache_bits } in
  Pool.with_pool ~domains:serve_workers (fun pool ->
      let plain () = (snd (Serve.run ~pool ~config o flat)).Serve.elapsed_ns in
      let inst () =
        let obs = Obs.create () in
        let sampler = Sampler.create obs in
        (snd (Serve.run ~pool ~config ~obs ~sampler o flat)).Serve.elapsed_ns
      in
      ignore (plain ());
      let ratios =
        List.init obs_ab_pairs (fun i ->
            if i land 1 = 0 then
              let a = inst () in
              a /. plain ()
            else
              let b = plain () in
              inst () /. b)
      in
      (median_f ratios -. 1.) *. 100.)

(* Build memory attribution. Landmark's Build.result.mem_words is a
   placeholder 0 (Super_bf does not report its plane), so both are
   unknown for it: null in the ledger, absent from the metrics. *)
let plane_words b =
  if b.fam = Family.Landmark then None else Some b.result.Build.mem_words

let unattributed_words b =
  match (plane_words b, b.engine) with
  | Some plane, Some e ->
    Some (e.gc.heap_peak_words - plane - Sketch.size_words b.result.Build.sketch)
  | _ -> None

let per_layer ~wl ~seed ~untraced p ~ledger_rows ~unattributed_ns =
  let last = p.built in
  let per_build =
    List.concat_map
      (fun b ->
        let f = Family.name b.fam in
        let e = Option.get b.engine in
        let m = b.result.Build.metrics in
        let build_s = median_f (List.map (fun r ->
            let _, ns, _ = List.find (fun (f, _, _) -> f = b.fam) r in
            secs ns) p.rounds) in
        let mem =
          match (plane_words b, unattributed_words b) with
          | Some plane, Some rest ->
            [ metric ("plane.mem_words." ^ f) "words" (Count plane);
              metric ("build.unattributed_words." ^ f) "words" (Count rest) ]
          | _ -> []
        in
        [
          metric ("build." ^ f ^ "_s") "s" (Num build_s);
          metric ("engine.ns_per_message." ^ f) "ns"
            (Num (float_of_int b.build_ns /. float_of_int (max 1 (Metrics.messages m))));
          metric ("engine.deliver_s." ^ f) "s" (Num (secs e.deliver_ns));
          metric ("engine.compute_s." ^ f) "s" (Num (secs e.compute_ns));
          metric ("engine.other_s." ^ f) "s"
            (Num (secs (b.build_ns - e.deliver_ns - e.compute_ns)));
          metric ("engine.rounds." ^ f) "count" (Count (Metrics.rounds m));
          metric ("engine.words." ^ f) "count" (Count (Metrics.words m));
          metric ("engine.peak_in_flight." ^ f) "count" (Count e.profile.Trace.peak_in_flight);
          metric ("engine.max_link_backlog." ^ f) "count" (Count e.profile.Trace.max_link_backlog);
          metric ("build.top_heap_words." ^ f) "words" (Count e.gc.heap_peak_words);
          metric ("build.minor_words." ^ f) "words" (Num e.gc.minor_words);
          metric ("build.major_collections." ^ f) "count" (Count e.gc.majors);
          metric ("store.save_s." ^ f) "s" (Num (secs b.save_ns));
          metric ("store.bytes." ^ f) "B" (Count b.bytes);
          metric ("sketch.entries_per_node." ^ f) "count"
            (Num (float_of_int (Sketch.total_entries b.result.Build.sketch) /. float_of_int n));
        ]
        @ mem)
      last
  in
  let tz_closed = List.assoc Family.Tz p.closed in
  let open_med label sel = median_f (List.map sel (List.assoc label p.opened)) in
  let stretch =
    List.concat_map
      (fun (f, r) ->
        let f = Family.name f in
        [ metric ("verify.violations." ^ f) "count" (Count r.violations);
          metric ("verify.underestimates." ^ f) "count" (Count r.underestimates);
          metric ("verify.unanswered." ^ f) "count" (Count r.unanswered);
          metric ("stretch_max." ^ f) "ratio" (Num r.ratio_max);
          metric ("stretch_mean." ^ f) "ratio"
            (Num (r.ratio_sum /. float_of_int (r.pairs - r.unanswered))) ])
      p.stretch
  in
  let verified = List.fold_left (fun acc (_, r) -> acc + r.pairs) 0 p.stretch in
  [ metric "graph.gen_s" "s" (Num (median_i p.gen_ns /. 1e9)) ]
  @ per_build
  @ two_domain_builds ~seed
  @ [
      metric "store.load_heap_s" "s" (Num (sum_fam mean_i p.load_heap_ns /. 1e9));
      metric "store.load_mmap_s" "s" (Num (sum_fam mean_i p.load_mmap_ns /. 1e9));
      metric "oracle.of_store_s" "s" (Num (sum_fam mean_i p.of_store_ns /. 1e9));
      metric "oracle.first_query_us" "us" (Num (sum_fam mean_i p.first_query_ns /. 1e3));
    ]
  @ kernel_metrics ~seed p.serving
  @ List.map
      (fun (f, runs) ->
        metric ("serve.hit_rate." ^ Family.name f) "ratio"
          (Num (median_f (List.map (fun r -> r.hit_rate) runs))))
      p.closed
  @ [
      metric "serve.busy_frac" "ratio" (Num (median_f (List.map (fun r -> r.busy_frac) tz_closed)));
      metric "serve.worker_skew" "ratio" (Num (median_f (List.map (fun r -> r.skew) tz_closed)));
    ]
  @ List.concat_map
      (fun (label, rate, _) ->
        [
          metric ("serve.block_p50_us." ^ label) "us"
            (Num (open_med label (fun r -> float_of_int r.block_p50_ns) /. 1e3));
          metric ("serve.fill_wait_us." ^ label) "us"
            (Num (float_of_int (Serve.default_config.Serve.batch - 1) /. (2. *. rate) *. 1e6));
          metric ("serve.queue_depth_max." ^ label) "count"
            (Num (open_med label (fun r -> float_of_int r.backlog_max)));
          metric ("serve.generator_lag_ms." ^ label) "ms" (Num (open_med label (fun r -> r.lag_ms)));
          metric ("serve.p99_us." ^ label) "us" (Num (open_med label (fun r -> r.p99) /. 1e3));
          metric ("serve.p999_us." ^ label) "us" (Num (open_med label (fun r -> r.p999) /. 1e3));
        ])
      wl.rates
  @ [
      metric "trace.overhead_pct" "%"
        (Num ((float_of_int p.wall_ns /. float_of_int untraced.wall_ns -. 1.) *. 100.));
      metric "obs.overhead_pct" "%" (Num (obs_overhead ~wl ~seed (List.assoc Family.Tz p.serving)));
      metric "ledger.wall_s" "s" (Num (secs p.wall_ns));
      metric "ledger.unattributed_s" "s" (Num (secs unattributed_ns));
    ]
  @ List.map (fun (l, ns) -> metric ("ledger.self_s." ^ l) "s" (Num (secs ns))) ledger_rows
  @ [ metric "verify.pairs_checked" "count" (Count verified) ]
  @ stretch

(* ---- Output ------------------------------------------------------ *)

let value_json = function Num f -> Json.Float f | Count i -> Json.Int i

let metrics_json ms =
  Json.Obj
    (List.map
       (fun (name, unit, v) -> (name, Json.Obj [ ("value", value_json v); ("unit", Json.String unit) ]))
       ms)

let result_line ms =
  Json.to_string_compact
    (Json.Obj
       [ ("correct", Json.Bool (!failed = 0)); ("attempted", Json.Int !attempted);
         ("failed", Json.Int !failed); ("metrics", metrics_json ms) ])

let inputs_json ~wl ~seed ~seconds ~l2 ~l3 p =
  let last = p.built in
  Json.Obj
    [
      ("workload", Json.String wl.name); ("seed", Json.Int seed);
      ("seconds", Json.Int seconds);
      ("graph", Json.Obj [ ("family", Json.String "streaming_sparse"); ("n", Json.Int n);
                           ("m", Json.Int p.graph_m); ("avg_degree", Json.Float avg_degree) ]);
      ("k", Json.Int k);
      ("stream", Json.Obj [ ("kind", Json.String (Workload.name wl.stream));
                            ("closed_pairs", Json.Int wl.closed_pairs);
                            ("cache_bits", Json.Int wl.cache_bits) ]);
      ("open_loop", Json.List (List.map (fun (l, r, c) ->
           Json.Obj [ ("label", Json.String l); ("rate", Json.Float r); ("pairs", Json.Int c) ])
           wl.rates));
      ("snapshot_bytes", Json.Obj (List.map (fun b -> (Family.name b.fam, Json.Int b.bytes)) last));
      ("host", Json.Obj [ ("nproc", Json.Int nproc); ("l2_bytes", Json.Int l2); ("l3_bytes", Json.Int l3) ]);
      ("pool_width", Json.Obj [ ("build", Json.Int 1); ("serve", Json.Int serve_workers);
                                ("build_2dom", Json.Int serve_workers) ]);
      ("plan", Json.Obj [ ("build_rounds", Json.Int p.plan.build_rounds);
                          ("closed_rounds", Json.Int p.plan.closed_rounds);
                          ("open_rounds", Json.Int p.plan.open_rounds) ]);
    ]

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--ttfq-child" then begin
    ttfq_child_main Sys.argv;
    exit 0
  end;
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let l2 = ref 0 and l3 = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME build | serve-uniform | serve-zipf");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--l2", Arg.Set_int l2, "BYTES host L2 size, recorded with the inputs");
      ("--l3", Arg.Set_int l3, "BYTES host L3 size, recorded with the inputs");
      ("--pin", Arg.Set_string pin_tool, "PATH taskset, to pin time-to-first-query children");
      ("--cpus", Arg.String (fun c -> pin_cpus := String.split_on_char ',' c),
       "LIST cores the children are pinned to in turn");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --seconds S --trace 0|1";
  let wl =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  let seed = !seed and seconds = !seconds in
  (* Snapshots (removed at exit), spans and the ledger. *)
  let dir = Filename.concat (Filename.concat "perfbench" "out") wl.name in
  mkdir_p dir;
  let finish ms =
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".dsk" then
          try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (try Sys.readdir dir with Sys_error _ -> [||]);
    print_endline (result_line ms);
    exit (if !failed = 0 then 0 else 1)
  in
  let print_inputs p =
    print_endline
      (Json.to_string_compact
         (Json.Obj [ ("inputs", inputs_json ~wl ~seed ~seconds ~l2:!l2 ~l3:!l3 p) ]))
  in
  try
    if !trace = 0 then begin
      let p = run_pass ~wl ~seed ~seconds ~dir () in
      print_inputs p;
      finish (end_to_end ~wl p)
    end
    else begin
      (* A fixed plan, so traced runs compare across commits. One
         landmark build first grows the heap, so neither pass pays for
         that; the traced pass then runs before its untraced twin, which
         leaves any remaining warm-up on the side that overstates the
         tracing overhead. *)
      let plan = { build_rounds = min_rounds; closed_rounds = min_rounds; open_rounds = min_rounds } in
      ignore
        (Build.run ~pool:Pool.sequential ~family:Family.Landmark
           (Gen.streaming_sparse ~rng:(Rng.create seed) ~n ~avg_degree ())
           ~k ~seed);
      let pass traced =
        phases := [];
        tracing := traced;
        let p = run_pass ~wl ~seed ~seconds ~dir ~plan () in
        tracing := false;
        (p, List.rev !phases)
      in
      let p1, traced_phases = pass true in
      let p2, untraced_phases = pass false in
      print_inputs p1;
      let phase_json l = Json.Obj (List.map (fun (nm, ns) -> (nm, Json.Float (secs ns))) l) in
      print_endline
        (Json.to_string_compact
           (Json.Obj
              [ ("phases_s",
                 Json.Obj [ ("traced", phase_json traced_phases);
                            ("untraced", phase_json untraced_phases) ]) ]));
      let rows, unattributed_ns, negative = ledger !spans ~wall_ns:p1.wall_ns in
      (* The rows plus the unattributed remainder equal the traced wall
         by construction; the tolerance is on the remainder, time the
         pass spent outside every span, which must stay within 1 % of
         the wall. *)
      check (negative = 0) "ledger: child spans exceed their parent";
      check
        (unattributed_ns >= 0 && unattributed_ns * 100 <= p1.wall_ns)
        "ledger: unattributed time outside [0, 1 %] of the traced wall";
      write_file (Filename.concat dir "spans.jsonl")
        (String.concat "" (List.rev_map (fun s -> Json.to_string_compact (span_json s) ^ "\n") !spans));
      let ledger_json =
        Json.Obj
          [
            ("wall_s", Json.Float (secs p1.wall_ns));
            ("rows", Json.Obj (List.map (fun (l, ns) -> (l, Json.Float (secs ns))) rows));
            ("unattributed_s", Json.Float (secs unattributed_ns));
            ("build_memory_words",
             Json.Obj
               (List.map
                  (fun b ->
                    let words = function Some w -> Json.Int w | None -> Json.Null in
                    ( Family.name b.fam,
                      Json.Obj
                        [ ("top_heap", Json.Int (Option.get b.engine).gc.heap_peak_words);
                          ("plane", words (plane_words b));
                          ("sketch", Json.Int (Sketch.size_words b.result.Build.sketch));
                          ("unattributed", words (unattributed_words b)) ] ))
                  p1.built));
          ]
      in
      write_file (Filename.concat dir "ledger.json") (Json.to_string ledger_json);
      Printf.printf "ledger (%s, traced wall %.3f s):\n" wl.name (secs p1.wall_ns);
      List.iter (fun (l, ns) -> Printf.printf "  %-12s %9.3f s\n" l (secs ns)) rows;
      Printf.printf "  %-12s %9.3f s\n" "unattributed" (secs unattributed_ns);
      print_endline (Json.to_string_compact (Json.Obj [ ("ledger", ledger_json) ]));
      finish (per_layer ~wl ~seed ~untraced:p2 p1 ~ledger_rows:rows ~unattributed_ns)
    end
  with e ->
    fail_msg "exception: %s" (Printexc.to_string e);
    incr attempted;
    incr failed;
    finish []
