(* Set-associative LRU caches and a small hierarchy, driven by element-level
   access traces.  This is the behavioural counterpart of the analytic
   [Memmodel]: the validation experiment replays kernels through it and
   checks that the analytic bottleneck-level choice matches the simulated
   miss behaviour. *)

type config = {
  size_bytes : int;
  ways : int;
  line_bytes : int;
}

(* One flat array per field, indexed [set * ways + way].  Power-of-two line
   sizes and set counts decode addresses with shifts and a mask ([*_shift]
   is -1 otherwise). *)
type t = {
  cfg : config;
  sets : int;
  tags : int array;  (* -1 = invalid *)
  age : int array;  (* LRU stamps *)
  line_shift : int;
  set_shift : int;
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
}

let log2_exact x =
  if x land (x - 1) <> 0 then -1
  else
    let rec go k = if 1 lsl k = x then k else go (k + 1) in
    go 0

let create cfg =
  if cfg.size_bytes <= 0 || cfg.ways <= 0 || cfg.line_bytes <= 0 then
    invalid_arg "Cache.create: non-positive parameter";
  let lines = cfg.size_bytes / cfg.line_bytes in
  if lines < cfg.ways || lines mod cfg.ways <> 0 then
    invalid_arg "Cache.create: size/ways/line mismatch";
  let sets = lines / cfg.ways in
  {
    cfg;
    sets;
    tags = Array.make (sets * cfg.ways) (-1);
    age = Array.make (sets * cfg.ways) 0;
    line_shift = log2_exact cfg.line_bytes;
    set_shift = log2_exact sets;
    clock = 0;
    accesses = 0;
    misses = 0;
  }

let accesses t = t.accesses
let misses t = t.misses
let hits t = t.accesses - t.misses

let miss_rate t =
  if t.accesses = 0 then 0.0 else float_of_int t.misses /. float_of_int t.accesses

(* Address decode, shared by [access] and [resident] so that no geometry
   can decode two ways: an address's line, the line's set (as the flat
   index of the set's first way) and its tag.  Negative
   addresses decode with truncating [/] and [mod], exactly as a
   non-power-of-two geometry does; a negative set index is out of bounds. *)
let[@inline] line_of t addr =
  if t.line_shift >= 0 && addr >= 0 then addr lsr t.line_shift
  else addr / t.cfg.line_bytes

let[@inline] first_way t line =
  let set =
    if t.set_shift >= 0 && line >= 0 then line land (t.sets - 1)
    else line mod t.sets
  in
  if set < 0 then invalid_arg "index out of bounds";
  set * t.cfg.ways

let[@inline] tag_of t line =
  if t.set_shift >= 0 && line >= 0 then line lsr t.set_shift else line / t.sets

(* The way holding [line], or [first - 1] when it is not resident.  The
   last matching way is the one that hits: scan down and stop at the first
   match. *)
let[@inline] find t ~first ~tag =
  let tags = t.tags in
  let w = ref (first + t.cfg.ways - 1) in
  while !w >= first && Array.unsafe_get tags !w <> tag do
    decr w
  done;
  !w

(* Touch one byte address; returns true on hit.  Misses install the line. *)
let access t addr =
  t.clock <- t.clock + 1;
  t.accesses <- t.accesses + 1;
  let line = line_of t addr in
  let first = first_way t line in
  let tag = tag_of t line in
  let w = find t ~first ~tag in
  let age = t.age in
  if w >= first then begin
    Array.unsafe_set age w t.clock;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    (* Evict the least recently used way (the lowest index on ties). *)
    let victim = ref first in
    for w = first + 1 to first + t.cfg.ways - 1 do
      if Array.unsafe_get age w < Array.unsafe_get age !victim then victim := w
    done;
    Array.unsafe_set t.tags !victim tag;
    Array.unsafe_set age !victim t.clock;
    false
  end

(* Whether [addr]'s line is resident; changes no state. *)
let resident t addr =
  let line = line_of t addr in
  let first = first_way t line in
  find t ~first ~tag:(tag_of t line) >= first

(* Account [r] accesses that all hit resident lines, without restamping
   them.  Sound only when restamping could not change the LRU order that
   any later eviction reads (see [Tracesim]'s line runs). *)
let skip_hits t r =
  t.clock <- t.clock + r;
  t.accesses <- t.accesses + r

let reset_stats t =
  t.accesses <- 0;
  t.misses <- 0

(* A non-inclusive two/three-level hierarchy: an access filters down until
   it hits. *)
type hierarchy = { levels : t list }

let hierarchy configs = { levels = List.map create configs }

(* Returns the 0-based index of the level that hit (length = memory). *)
let hierarchy_access h addr =
  let rec go i = function
    | [] -> i
    | c :: rest -> if access c addr then i else go (i + 1) rest
  in
  go 0 h.levels

let level_stats h = List.map (fun c -> (accesses c, misses c)) h.levels
