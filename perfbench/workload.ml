(* The three request mixes and their seeded request streams.

   A workload is a fixed catalog and database (data seed [data_seed],
   never the run's seed: the data is the system's state, the stream is
   its input), a set of chain-query shapes, and per shape a pool of
   binding sets drawn by Latin-hypercube sampling from the run's seed.
   Each request is one (shape, binding set) pair.  The pairs are dealt
   from a deck reshuffled on every pass, so every pair is served equally
   often and two seeds differ in the order and the values, not in the
   mix: that keeps the per-request work of different seeds close, which
   is what lets one seed's figures be compared with another's.

   Request lines carry no [id=]: the body of every pair is rendered once
   during set-up, so the client does no per-request formatting work. *)

module Protocol = Dqep_serve.Protocol
module Paper_catalog = Dqep_workload.Paper_catalog
module Rng = Dqep_util.Rng

type shape = {
  first : int;  (** index of the chain's first relation *)
  width : int;  (** relations in the chain *)
  selected : int list;  (** chain positions (0-based) carrying a selection *)
}

type t = {
  name : string;
  relations : int;  (** catalog size: [R1 .. Rrelations] *)
  shapes : shape list;
  per_shape : int;  (** binding sets drawn per shape *)
  sel_hi : float;  (** selectivities are drawn over [\[0, sel_hi\]] *)
  memory : int * int;  (** [memory=] grants are drawn over this range *)
  frames : int;  (** buffer-pool frames the database is built with *)
  cache_capacity : int;  (** plan-cache entries *)
  warmup : int;  (** requests served before timing, after one per shape *)
}

let data_seed = 1

let chain first width = List.init width (fun k -> first + k)

(* Four chain shapes, 2- to 5-way, selection on every relation. *)
let hit_shapes =
  List.map
    (fun width -> { first = 1; width; selected = List.init width Fun.id })
    [ 2; 3; 4; 5 ]

(* 4 widths x 2 offsets x 4 selection subsets = 32 shapes.  Every subset
   keeps the first relation selective, so no shape joins two unfiltered
   relations. *)
let miss_shapes =
  List.concat_map
    (fun width ->
      List.concat_map
        (fun first ->
          List.map
            (fun selected -> { first; width; selected })
            [ [ 0 ]; [ 0; width - 1 ]; [ 0; 1 ]; List.init width Fun.id ])
        [ 1; 3 ])
    [ 3; 4; 5; 6 ]

let all =
  [ (* A warm plan cache over 2-5-way chains: start-up resolution,
       execution kernels and buffer-pool reads do the work, the optimizer
       none. *)
    { name = "hit_exec";
      relations = 5;
      shapes = hit_shapes;
      per_shape = 16;
      sel_hi = 0.3;
      memory = (16, 112);
      frames = 64;
      cache_capacity = 64;
      warmup = 64 };
    (* 32 shapes through an 8-entry plan cache, selective bindings and
       resident data: the optimizer, memo and cache eviction do the work,
       execution little. *)
    { name = "miss_optimize";
      relations = 8;
      shapes = miss_shapes;
      per_shape = 4;
      sel_hi = 0.02;
      memory = (4096, 4096);
      frames = 4096;
      cache_capacity = 8;
      warmup = 64 };
    (* hit_exec's shapes with point bindings on a pool that holds all
       data: storage and execution do nearly nothing, so the fixed
       per-request path dominates. *)
    { name = "hit_overhead";
      relations = 5;
      shapes = hit_shapes;
      per_shape = 256;
      sel_hi = 0.005;
      memory = (4096, 4096);
      frames = 4096;
      cache_capacity = 64;
      warmup = 512 } ]

let find name = List.find_opt (fun w -> w.name = name) all

let rel i = Paper_catalog.rel_name i

let sql_of_shape s =
  let rels = chain s.first s.width in
  let sels =
    List.mapi
      (fun k pos ->
        Printf.sprintf "%s.%s <= :u%d" (rel (s.first + pos))
          Paper_catalog.select_attr (k + 1))
      s.selected
  in
  let joins =
    List.init (s.width - 1) (fun k ->
        Printf.sprintf "%s.%s = %s.%s" (rel (s.first + k))
          Paper_catalog.join_right_attr (rel (s.first + k + 1))
          Paper_catalog.join_left_attr)
  in
  Printf.sprintf "SELECT * FROM %s WHERE %s"
    (String.concat ", " (List.map rel rels))
    (String.concat " AND " (sels @ joins))

(* Latin hypercube over [0, hi]: each of the [n] draws of a dimension
   falls in a different n-th of the range. *)
let hypercube rng ~n ~dims ~lo ~hi =
  let columns =
    Array.init dims (fun _ ->
        let perm = Array.init n Fun.id in
        Rng.shuffle rng perm;
        Array.map
          (fun k ->
            lo
            +. ((hi -. lo) *. (float_of_int k +. Rng.float rng)
               /. float_of_int n))
          perm)
  in
  Array.init n (fun b -> Array.init dims (fun d -> columns.(d).(b)))

(* One rendered request body per (shape, binding set), shape-major, then
   one per shape with every selectivity and the grant at the middle of
   their ranges.  Those last ones warm the plan cache: the plan a shape
   keeps is optimized under the feedback of the requests before it, so
   they are the same for every seed. *)
let bodies w ~seed =
  let rng = Rng.create seed in
  let render s sels mem =
    Protocol.render_request
      (Protocol.Run
         { Protocol.id = None;
           bindings =
             List.mapi (fun k v -> (Printf.sprintf "u%d" (k + 1), v)) sels;
           memory_pages = Some mem;
           deadline_ms = None;
           retries = None;
           risk = None;
           sql = sql_of_shape s })
  in
  let drawn =
    List.concat_map
      (fun s ->
        let vars = List.length s.selected in
        let sels = hypercube rng ~n:w.per_shape ~dims:vars ~lo:0. ~hi:w.sel_hi in
        let lo, hi = w.memory in
        let mems =
          hypercube rng ~n:w.per_shape ~dims:1 ~lo:(float_of_int lo)
            ~hi:(float_of_int hi)
        in
        List.init w.per_shape (fun b ->
            render s
              (Array.to_list sels.(b))
              (int_of_float (Float.round mems.(b).(0)))))
      w.shapes
  in
  let warming =
    List.map
      (fun s ->
        render s
          (List.map (fun _ -> w.sel_hi /. 2.) s.selected)
          ((fst w.memory + snd w.memory) / 2))
      w.shapes
  in
  Array.of_list (drawn @ warming)

(* The request stream: first the cache-warming body of every shape, then
   the deck of drawn bodies.  [next ()] yields body indices forever; the
   same seed yields the same sequence. *)
let stream w ~seed =
  let shapes = List.length w.shapes in
  let n = shapes * w.per_shape in
  let rng = Rng.create (seed lxor 0x5eed) in
  let deck = Array.init n Fun.id in
  let pos = ref n in
  let served = ref 0 in
  fun () ->
    let i = !served in
    incr served;
    if i < shapes then n + i
    else begin
      if !pos = n then begin
        Rng.shuffle rng deck;
        pos := 0
      end;
      let b = deck.(!pos) in
      incr pos;
      b
    end
