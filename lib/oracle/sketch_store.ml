module Label = Ds_core.Label
module Family = Ds_sketch.Family
module Sketch = Ds_sketch.Sketch

type meta = {
  n : int;
  k : int;
  seed : int;
  graph_family : string;
  sketch_family : Family.t;
}

type mode = Heap | Mmap

type t = { meta : meta; sketch : Sketch.t; load_mode : mode }

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let magic = "DSKETCH1"
let version = 3

let mode_name = function Heap -> "heap" | Mmap -> "mmap"

let v ?(seed = 0) ?(graph_family = "") sketch =
  {
    meta =
      {
        n = Sketch.n sketch;
        k = Sketch.k sketch;
        seed;
        graph_family;
        sketch_family = Sketch.family sketch;
      };
    sketch;
    load_mode = Heap;
  }

let of_labels ?seed ?graph_family labels =
  if Array.length labels = 0 then
    invalid_arg "Sketch_store.of_labels: empty label set";
  v ?seed ?graph_family (Sketch.of_tz_labels labels)

let mapped_bytes t = Sketch.mapped_bytes t.sketch

(* FNV-1a, 64-bit, over bytes [pos, pos + len) of [b]. An indexed
   loop over a local ref, with no closure, so the compiler keeps the
   accumulator unboxed: hashing allocates nothing per byte. Readers
   pass [Bytes.unsafe_of_string] of a string they never mutate. *)
let fnv1a64_sub b pos len =
  let h = ref 0xcbf29ce484222325L in
  for i = pos to pos + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i))))
        0x100000001b3L
  done;
  !h

let fnv1a64 s = fnv1a64_sub (Bytes.unsafe_of_string s) 0 (String.length s)

let pad8 len = (8 - (len land 7)) land 7

let padded len = len + pad8 len

(* The one writer, for every version. The file size is known up front
   from the header fields and the section extents, so each word is
   written once into one exact-size buffer and both checksums hash
   it in place. Field order per version:
   - all: magic, version, n, k, seed;
   - v2+: the padded sketch-family string;
   - all: the padded graph-family string (v1's lone family field was
     the graph family);
   - v2+: the pivot-words field; v3: the entry total and the header
     checksum (so the mmap loader can validate everything it parses
     eagerly in O(1) without touching the payload pages);
   - all: the canonical sections ({!Sketch.iter_section_words} —
     offsets, (dist, node) pivot pairs, (node, dist) entry pairs;
     backing-independent, so serialising a mapped store streams the
     very words it was mapped from), then the trailing checksum. *)
let encode ~ver t =
  let { n; k; seed; graph_family; sketch_family } = t.meta in
  let sk = t.sketch in
  let sf = Family.name sketch_family in
  let pivot_words = 2 * Sketch.pivot_pairs sk
  and total = Sketch.total_entries sk in
  let header =
    40
    + (if ver > 1 then 8 + padded (String.length sf) else 0)
    + 8
    + padded (String.length graph_family)
    + (match ver with 1 -> 0 | 2 -> 8 | _ -> 24)
  in
  let size = header + (8 * (n + 1 + pivot_words + (2 * total))) + 8 in
  let b = Bytes.create size in
  let pos = ref 0 in
  let word i =
    Bytes.set_int64_le b !pos (Int64.of_int i);
    pos := !pos + 8
  in
  let padded_string s =
    let len = String.length s in
    word len;
    Bytes.blit_string s 0 b !pos len;
    Bytes.fill b (!pos + len) (pad8 len) '\000';
    pos := !pos + padded len
  in
  let checksum () =
    Bytes.set_int64_le b !pos (fnv1a64_sub b 0 !pos);
    pos := !pos + 8
  in
  Bytes.blit_string magic 0 b 0 8;
  pos := 8;
  word ver;
  word n;
  word k;
  word seed;
  if ver > 1 then padded_string sf;
  padded_string graph_family;
  if ver > 1 then word pivot_words;
  if ver > 2 then begin
    word total;
    checksum ()
  end;
  Sketch.iter_section_words sk word;
  checksum ();
  assert (!pos = size);
  Bytes.unsafe_to_string b

let to_bytes t = encode ~ver:version t

let to_bytes_v2 t = encode ~ver:2 t

let to_bytes_v1 t =
  if t.meta.sketch_family <> Family.Tz then
    invalid_arg "Sketch_store.to_bytes_v1: only family tz has a v1 layout";
  encode ~ver:1 t

(* Shared by the heap reader paths: the offset table, optional pivot
   section and entry section that follow the version-specific header,
   starting at byte [body]. [pivot_words] is [2nk] (v1, tz) or
   whatever the v2/v3 header declared; [declared_total] is the v3
   header's entry total, cross-checked against the offsets. *)
let read_sections s ~len ~body ~n ~k ~pivot_words ?declared_total
    ~sketch_family () =
  let word off = Int64.to_int (String.get_int64_le s off) in
  if len < body + (8 * (n + 1)) then
    error "truncated snapshot: offset table cut short (%d bytes)" len;
  let off = Array.init (n + 1) (fun i -> word (body + (8 * i))) in
  if off.(0) <> 0 then error "corrupt bunch offsets: first is %d" off.(0);
  for i = 0 to n - 1 do
    if off.(i + 1) < off.(i) then
      error "corrupt bunch offsets: not monotone at node %d" i
  done;
  let total = off.(n) in
  (match declared_total with
  | Some d when d <> total ->
    error "corrupt snapshot: header entry total %d disagrees with offsets %d" d
      total
  | _ -> ());
  let pivots_at = body + (8 * (n + 1)) in
  let ents_at = pivots_at + (8 * pivot_words) in
  let expected = ents_at + (8 * 2 * total) + 8 in
  if len <> expected then
    error "truncated or oversized snapshot: expected %d bytes, got %d" expected
      len;
  let stored = String.get_int64_le s (len - 8) in
  let computed = fnv1a64_sub (Bytes.unsafe_of_string s) 0 (len - 8) in
  if stored <> computed then
    error "checksum mismatch: stored %Lx, computed %Lx — corrupt snapshot"
      stored computed;
  let half = pivot_words / 2 in
  let pivot_dist = Array.make half 0 and pivot_node = Array.make half 0 in
  for i = 0 to half - 1 do
    pivot_dist.(i) <- word (pivots_at + (8 * 2 * i));
    pivot_node.(i) <- word (pivots_at + (8 * ((2 * i) + 1)))
  done;
  let ent_node = Array.make total 0 and ent_dist = Array.make total 0 in
  for u = 0 to n - 1 do
    let prev = ref (-1) in
    for j = off.(u) to off.(u + 1) - 1 do
      let at = ents_at + (8 * 2 * j) in
      let w = word at and d = word (at + 8) in
      if w < 0 || w >= n then
        error "corrupt bunch section: node %d out of range at entry %d" w j;
      if w <= !prev then
        error "corrupt bunch section: entries of node %d not sorted" u;
      prev := w;
      ent_node.(j) <- w;
      ent_dist.(j) <- d
    done
  done;
  match
    Sketch.of_arrays ~family:sketch_family ~k ~pivot_dist ~pivot_node ~off
      ~ent_node ~ent_dist
  with
  | sketch -> sketch
  | exception Invalid_argument m -> error "corrupt snapshot: %s" m

(* Version-agnostic header parse over a prefix string [s] of the file
   ([avail] bytes of it; [file_len] is the whole file). Returns the
   parsed meta, the declared pivot/total words (v3), the byte offset
   where the sections begin, and the version. Validates the v3 header
   checksum — everything the mmap loader trusts eagerly. *)
type header = {
  h_ver : int;
  h_meta : meta;
  h_pivot_words : int;
  h_total : int;  (* -1 before v3 *)
  h_body : int;
}

let parse_header s ~avail =
  if avail < 16 then error "truncated snapshot: %d bytes, no header" avail;
  if String.sub s 0 8 <> magic then
    error "bad magic %S: not a distsketch snapshot" (String.sub s 0 8);
  let word off = Int64.to_int (String.get_int64_le s off) in
  let ver = word 8 in
  if ver <> 1 && ver <> 2 && ver <> version then
    error "unsupported snapshot version %d (this reader expects <= %d)" ver
      version;
  if avail < 48 then error "truncated snapshot header: %d bytes" avail;
  let n = word 16 and k = word 24 and seed = word 32 in
  if n < 1 || k < 1 then error "bad snapshot header: n=%d k=%d" n k;
  let read_string at =
    let slen = word at in
    if slen < 0 || slen > avail - at - 8 then
      error "bad snapshot header: family length %d" slen;
    (String.sub s (at + 8) slen, at + 8 + slen + pad8 slen)
  in
  if ver = 1 then begin
    (* v1: one family string — the graph family — then the
       unconditional tz pivot section. *)
    let graph_family, body = read_string 40 in
    {
      h_ver = 1;
      h_meta = { n; k; seed; graph_family; sketch_family = Family.Tz };
      h_pivot_words = 2 * n * k;
      h_total = -1;
      h_body = body;
    }
  end
  else begin
    let sf_name, after_sf = read_string 40 in
    let sketch_family =
      match Family.of_string sf_name with
      | Ok f -> f
      | Error _ -> error "unknown sketch family %S in snapshot header" sf_name
    in
    let graph_family, after_gf = read_string after_sf in
    let tail_words = if ver = 2 then 8 else 24 in
    if avail < after_gf + tail_words then
      error "truncated snapshot header: %d bytes" avail;
    let pivot_words = word after_gf in
    let want_pivots = if sketch_family = Family.Tz then 2 * n * k else 0 in
    if pivot_words <> want_pivots then
      error "bad snapshot header: pivot section %d words, family %s wants %d"
        pivot_words sf_name want_pivots;
    let total =
      if ver = 2 then -1
      else begin
        let total = word (after_gf + 8) in
        if total < 0 then error "bad snapshot header: entry total %d" total;
        let stored = String.get_int64_le s (after_gf + 16) in
        let computed =
          fnv1a64_sub (Bytes.unsafe_of_string s) 0 (after_gf + 16)
        in
        if stored <> computed then
          error
            "header checksum mismatch: stored %Lx, computed %Lx — corrupt \
             snapshot header"
            stored computed;
        total
      end
    in
    {
      h_ver = ver;
      h_meta = { n; k; seed; graph_family; sketch_family };
      h_pivot_words = pivot_words;
      h_total = total;
      h_body = (after_gf + tail_words);
    }
  end

let of_bytes s =
  let len = String.length s in
  let h = parse_header s ~avail:len in
  let declared_total = if h.h_total >= 0 then Some h.h_total else None in
  let sketch =
    read_sections s ~len ~body:h.h_body ~n:h.h_meta.n ~k:h.h_meta.k
      ~pivot_words:h.h_pivot_words ?declared_total
      ~sketch_family:h.h_meta.sketch_family ()
  in
  { meta = h.h_meta; sketch; load_mode = Heap }

let save path t =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_bytes t))

(* Header prefix large enough for any header this writer produces
   (the two family strings are the only variable-length fields). *)
let max_header_bytes = 65536

let load_mmap path =
  let size, prefix =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let size = in_channel_length ic in
        (size, really_input_string ic (min size max_header_bytes)))
  in
  if size < 16 then error "truncated snapshot: %d bytes, no header" size;
  if size land 7 <> 0 then
    error "misaligned snapshot: %d bytes is not a multiple of 8 — cannot map"
      size;
  let h = parse_header prefix ~avail:(String.length prefix) in
  if h.h_ver < version then
    error
      "snapshot version %d predates the mappable v3 layout — heap-load and \
       re-save to upgrade"
      h.h_ver;
  let { n; k; _ } = h.h_meta in
  if h.h_body land 7 <> 0 then
    error "misaligned snapshot: sections start at byte %d" h.h_body;
  let expected =
    h.h_body + (8 * (n + 1)) + (8 * h.h_pivot_words) + (8 * 2 * h.h_total) + 8
  in
  if size <> expected then
    error "truncated or oversized snapshot: expected %d bytes, got %d" expected
      size;
  let buf =
    let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        match
          Unix.map_file fd Bigarray.int Bigarray.c_layout false [| size / 8 |]
        with
        | ga -> Bigarray.array1_of_genarray ga
        | exception (Unix.Unix_error _ | Sys_error _) ->
          error "cannot map snapshot %s" path)
  in
  let sketch =
    match
      Sketch.of_mapped ~family:h.h_meta.sketch_family ~k ~n ~total:h.h_total
        ~buf ~off_at:(h.h_body / 8)
    with
    | sketch -> sketch
    | exception Invalid_argument m -> error "corrupt snapshot: %s" m
  in
  { meta = h.h_meta; sketch; load_mode = Mmap }

let load ?(mode = Heap) path =
  match mode with
  | Mmap -> load_mmap path
  | Heap ->
    let ic = open_in_bin path in
    let s =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    of_bytes s
