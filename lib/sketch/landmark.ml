module Graph = Ds_graph.Graph
module Dist = Ds_graph.Dist
module Dijkstra = Ds_graph.Dijkstra
module Engine = Ds_congest.Engine
module Plane = Ds_congest.Plane
module Metrics = Ds_congest.Metrics
module Superstep = Ds_congest.Superstep
module Rng = Ds_util.Rng

let r ~n =
  let rec log2 acc x = if x >= 2 then log2 (acc + 1) (x / 2) else acc in
  max 1 (log2 0 n)

let sets ~n ~k ~seed =
  if k < 1 then invalid_arg "Landmark.sets: k < 1";
  if n < 1 then invalid_arg "Landmark.sets: n < 1";
  let rng = Rng.create seed in
  let r = r ~n in
  Array.init (k * r) (fun i ->
      let j = i mod r in
      let size = min (1 lsl j) n in
      Rng.sample_without_replacement rng size n)

(* Per-node state: for every set [s], the lex-smallest
   [(dist.(s), near.(s))] heard so far ([Dist.infinity]/[max_int] =
   unreached), plus a FIFO of dirty set ids — the [Multi_bf] pending
   ring with the set id as key. A set sits in the ring at most once,
   so a ring of [nsets] slots never overflows. All flat arrays, so
   the per-message path allocates nothing. *)
type state = {
  dist : int array;
  near : int array;
  queued : Bytes.t; (* '\001' iff the set sits in the ring *)
  pend : int array; (* ring of set ids, capacity = number of sets *)
  mutable pend_head : int;
  mutable pend_len : int;
}

let enqueue st s =
  if Bytes.get st.queued s = '\000' then begin
    Bytes.set st.queued s '\001';
    let cap = Array.length st.pend in
    let i = st.pend_head + st.pend_len in
    st.pend.(if i >= cap then i - cap else i) <- s;
    st.pend_len <- st.pend_len + 1
  end

(* Once per delivered message: keep the lex-min [(dist, landmark)]
   per set — the super-source Bellman–Ford rule, run for every set at
   once. *)
let accept st s l nd =
  let d = st.dist.(s) in
  if nd < d || (nd = d && l < st.near.(s)) then begin
    st.dist.(s) <- nd;
    st.near.(s) <- l;
    enqueue st s
  end

(* One dirty set per round, so every link carries at most one
   message per round. *)
let pop_and_broadcast api st =
  if st.pend_len > 0 then begin
    let s = st.pend.(st.pend_head) in
    let h = st.pend_head + 1 in
    st.pend_head <- (if h = Array.length st.pend then 0 else h);
    st.pend_len <- st.pend_len - 1;
    Bytes.set st.queued s '\000';
    api.Engine.broadcast (s, st.near.(s), st.dist.(s))
  end

(* [member.(u)]: the sets [u] is a landmark of, ascending. *)
let protocol ~nsets ~member : (state, int * int * int) Engine.protocol =
  let open Engine in
  {
    name = "landmark";
    max_msg_words = 3;
    msg_words = (fun _ -> 3);
    halted = (fun st -> st.pend_len = 0);
    init =
      (fun api ->
        let st =
          {
            dist = Array.make nsets Dist.infinity;
            near = Array.make nsets max_int;
            queued = Bytes.make nsets '\000';
            pend = Array.make nsets 0;
            pend_head = 0;
            pend_len = 0;
          }
        in
        List.iter
          (fun s ->
            st.dist.(s) <- 0;
            st.near.(s) <- api.id;
            enqueue st s)
          member.(api.id);
        st);
    on_round =
      (fun api st inbox ->
        for i = 0 to Engine.Inbox.length inbox - 1 do
          let s, l, d = Engine.Inbox.msg inbox i in
          accept st s l (d + api.neighbor_weight (Engine.Inbox.from inbox i))
        done;
        pop_and_broadcast api st);
  }

let codec =
  let open Ds_util in
  {
    Superstep.encode =
      (fun b (s, l, d) ->
        Ivec.push b s;
        Ivec.push b l;
        Ivec.push b d);
    decode =
      (fun w o -> (Ivec.get w o, Ivec.get w (o + 1), Ivec.get w (o + 2)));
  }

(* A node's sketch: its per-set nearest landmarks, sorted and
   deduplicated. A landmark nearest in several sets carries the same
   exact distance in each, so dropping repeats loses nothing. Shared
   by [run] and [reference]. *)
let entries_of_pairs pairs =
  let arr = Array.of_list pairs in
  Array.sort compare arr;
  let out = ref [] in
  Array.iter
    (fun ((l, _) as e) ->
      match !out with (l', _) :: _ when l' = l -> () | _ -> out := e :: !out)
    arr;
  Array.of_list (List.rev !out)

let state_entries st =
  let acc = ref [] in
  Array.iteri
    (fun s d -> if Dist.is_finite d then acc := (st.near.(s), d) :: !acc)
    st.dist;
  entries_of_pairs !acc

type result = { sketch : Sketch.t; metrics : Metrics.t; mem_words : int }

let run ?backend ?pool ?shards ?tracer ?obs g ~k ~seed =
  if k < 1 then invalid_arg "Landmark.run: k < 1";
  let n = Graph.n g in
  let sets = sets ~n ~k ~seed in
  let nsets = Array.length sets in
  let member = Array.make n [] in
  for s = nsets - 1 downto 0 do
    Array.iter (fun u -> member.(u) <- s :: member.(u)) sets.(s)
  done;
  let r =
    Plane.run ?backend ?pool ?shards ?tracer ?obs ~codec g
      (protocol ~nsets ~member)
  in
  (match r.Plane.stop with
  | Quiescent | All_halted -> ()
  | Round_limit -> failwith "Landmark: round limit hit");
  let m = r.Plane.metrics in
  Metrics.mark_phase m "landmark";
  let sketch =
    Sketch.v ~family:Family.Landmark ~k (Array.map state_entries r.Plane.states)
  in
  { sketch; metrics = m; mem_words = r.Plane.mem_words }

let reference g ~k ~seed =
  if k < 1 then invalid_arg "Landmark.reference: k < 1";
  let runs =
    Array.map
      (fun set -> Dijkstra.multi_source g ~sources:set)
      (sets ~n:(Graph.n g) ~k ~seed)
  in
  Array.init (Graph.n g) (fun u ->
      Array.fold_left
        (fun acc (dist, nearest) ->
          if Dist.is_finite dist.(u) then (nearest.(u), dist.(u)) :: acc
          else acc)
        [] runs
      |> entries_of_pairs)
