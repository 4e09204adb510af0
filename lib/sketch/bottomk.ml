module Graph = Ds_graph.Graph
module Dist = Ds_graph.Dist
module Dijkstra = Ds_graph.Dijkstra
module Engine = Ds_congest.Engine
module Plane = Ds_congest.Plane
module Metrics = Ds_congest.Metrics
module Multi_bf = Ds_congest.Multi_bf
module Rng = Ds_util.Rng

let rank ~seed v = Rng.mix (Rng.mix seed lxor v)

(* Per-node state: the known sources in flat parallel int arrays kept
   sorted ascending by [(rank, id)], plus an int-ring rebroadcast FIFO
   of source ids (the same ring as [Multi_bf.state]). Rank order makes
   a candidate's possible dominators exactly the entries before its
   insertion point, so the admission test scans that prefix only and
   stops at [k]. Entries are never deleted. [ranks] is the run's
   shared read-only rank table, indexed by node id. *)
type state = {
  k : int;
  ranks : int array;
  mutable ids : int array; (* source ids, sorted by (rank, id) *)
  mutable dist : int array;
  mutable queued : int array; (* 1 iff the source sits in the FIFO *)
  mutable count : int;
  mutable pend : int array; (* ring of source ids, power-of-two cap *)
  mutable pend_head : int;
  mutable pend_len : int;
  mutable max_pending : int;
}

(* First index [j] in [0, count) whose entry is not lex-below
   [src] in [(rank, id)] order — [src]'s slot if known, its insertion
   point otherwise. *)
let search st src =
  let r = st.ranks.(src) in
  let lo = ref 0 and hi = ref st.count in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let id = st.ids.(mid) in
    let rm = st.ranks.(id) in
    if rm < r || (rm = r && id < src) then lo := mid + 1
    else hi := mid
  done;
  !lo

let grow_tbl st =
  let cap = 2 * Array.length st.ids in
  let extend a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 st.count;
    b
  in
  st.ids <- extend st.ids;
  st.dist <- extend st.dist;
  st.queued <- extend st.queued

let grow_pend st =
  let old = st.pend in
  let cap = Array.length old in
  let next = Array.make (2 * cap) 0 in
  for i = 0 to st.pend_len - 1 do
    next.(i) <- old.((st.pend_head + i) land (cap - 1))
  done;
  st.pend <- next;
  st.pend_head <- 0

let enqueue st src j =
  if st.queued.(j) = 0 then begin
    st.queued.(j) <- 1;
    if st.pend_len = Array.length st.pend then grow_pend st;
    st.pend.((st.pend_head + st.pend_len) land (Array.length st.pend - 1))
    <- src;
    st.pend_len <- st.pend_len + 1;
    if st.pend_len > st.max_pending then st.max_pending <- st.pend_len
  end

(* Admission of a new source with insertion point [j]: fewer than [k]
   known sources dominate it, where a source dominates iff it is
   lex-below in rank order (the prefix [0, j)) and known at distance
   [<= nd]. The count is over set contents only (order-independent),
   which is what keeps the protocol byte-deterministic across
   backends. *)
let admits st j nd =
  let c = ref 0 and i = ref 0 in
  while !c < st.k && !i < j do
    if st.dist.(!i) <= nd then incr c;
    incr i
  done;
  !c < st.k

(* Cold path: first admitted announcement from [src], shifted into
   rank order at [j]. *)
let insert st src nd j =
  if st.count = Array.length st.ids then grow_tbl st;
  let tail = st.count - j in
  Array.blit st.ids j st.ids (j + 1) tail;
  Array.blit st.dist j st.dist (j + 1) tail;
  Array.blit st.queued j st.queued (j + 1) tail;
  st.count <- st.count + 1;
  st.ids.(j) <- src;
  st.dist.(j) <- nd;
  st.queued.(j) <- 0;
  enqueue st src j

(* Once per delivered message. An already-known source is always
   improved in place (never re-tested — permissive acceptance is what
   guarantees exact distances along shortest paths; see the .mli);
   an unknown one must pass [admits]. Nothing is ever evicted. *)
let accept st src nd =
  let j = search st src in
  if j < st.count && st.ids.(j) = src then begin
    if nd < st.dist.(j) then begin
      st.dist.(j) <- nd;
      enqueue st src j
    end
  end
  else if admits st j nd then insert st src nd j

let pop_and_broadcast api st =
  if st.pend_len > 0 then begin
    let src = st.pend.(st.pend_head) in
    st.pend_head <- (st.pend_head + 1) land (Array.length st.pend - 1);
    st.pend_len <- st.pend_len - 1;
    let j = search st src in
    st.queued.(j) <- 0;
    api.Engine.broadcast (src, st.dist.(j))
  end

let protocol ~k ~ranks : (state, int * int) Engine.protocol =
  let open Engine in
  {
    name = "bottomk";
    max_msg_words = 2;
    msg_words = (fun _ -> 2);
    halted = (fun st -> st.pend_len = 0);
    init =
      (fun api ->
        let st =
          {
            k;
            ranks;
            ids = Array.make 16 0;
            dist = Array.make 16 0;
            queued = Array.make 16 0;
            count = 0;
            pend = Array.make 8 0;
            pend_head = 0;
            pend_len = 0;
            max_pending = 0;
          }
        in
        (* Every node is a source: it is trivially in its own bottom-k
           set (distance 0, empty table), so announce unconditionally. *)
        insert st api.id 0 0;
        st);
    on_round =
      (fun api st inbox ->
        for i = 0 to Engine.Inbox.length inbox - 1 do
          let src, dist = Engine.Inbox.msg inbox i in
          let from = Engine.Inbox.from inbox i in
          accept st src (dist + api.neighbor_weight from)
        done;
        pop_and_broadcast api st);
  }

(* Greedy bottom-k filter over candidates sorted ascending by
   (rank, id): admit iff fewer than [k] already-admitted entries sit
   at distance <= the candidate's. Shared by the distributed
   extraction and the sequential [reference], so "equal sketches"
   really compares the two distance computations. *)
let select ~k sorted =
  let acc = ref [] and accd = ref [] in
  Array.iter
    (fun (_, key, d) ->
      let c =
        List.fold_left (fun c d' -> if d' <= d then c + 1 else c) 0 !accd
      in
      if c < k then begin
        acc := (key, d) :: !acc;
        accd := d :: !accd
      end)
    sorted;
  let out = Array.of_list !acc in
  Array.sort compare out;
  out

(* A node's final sketch: filter the table, already in rank order.
   The k lex-lowest-ranked nodes of any ball around [u] are themselves
   true ADS members and end the protocol present with exact distances,
   so entries admitted early on stale (longer) distances are exactly
   the ones the filter demotes — the result matches [reference]. *)
let sketch_entries st =
  select ~k:st.k
    (Array.init st.count (fun j -> (st.ranks.(st.ids.(j)), st.ids.(j), st.dist.(j))))

type result = {
  sketch : Sketch.t;
  metrics : Metrics.t;
  mem_words : int;
  max_pending : int;
}

let run ?backend ?pool ?shards ?tracer ?obs g ~k ~seed =
  if k < 1 then invalid_arg "Bottomk.run: k < 1";
  let r =
    Plane.run ?backend ?pool ?shards ?tracer ?obs ~codec:Multi_bf.codec g
      (protocol ~k ~ranks:(Array.init (Graph.n g) (rank ~seed)))
  in
  (match r.Plane.stop with
  | Quiescent | All_halted -> ()
  | Round_limit -> failwith "Bottomk: round limit hit");
  let m = r.Plane.metrics in
  Metrics.mark_phase m "bottomk";
  let max_pending =
    Array.fold_left
      (fun acc (st : state) -> max acc st.max_pending)
      0 r.Plane.states
  in
  let entries = Array.map sketch_entries r.Plane.states in
  let sketch = Sketch.v ~family:Family.Bottomk ~k entries in
  { sketch; metrics = m; mem_words = r.Plane.mem_words; max_pending }

let reference g ~k ~seed =
  if k < 1 then invalid_arg "Bottomk.reference: k < 1";
  let n = Graph.n g in
  let ranks = Array.init n (rank ~seed) in
  Array.init n (fun u ->
      let dist = Dijkstra.sssp g ~src:u in
      let es = ref [] in
      for v = n - 1 downto 0 do
        if Dist.is_finite dist.(v) then
          es := (ranks.(v), v, dist.(v)) :: !es
      done;
      let arr = Array.of_list !es in
      Array.sort compare arr;
      select ~k arr)
