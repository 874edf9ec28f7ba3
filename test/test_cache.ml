(* Tests for the set-associative cache simulator and the trace-driven
   validation layer. *)

module C = Vmachine.Cache
module T = Vmachine.Tracesim
module Mem = Vmachine.Memmodel

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let small = { C.size_bytes = 1024; ways = 2; line_bytes = 64 }
(* 1KB, 2-way, 64B lines: 16 lines, 8 sets. *)

let test_geometry_validation () =
  Alcotest.check_raises "bad ways"
    (Invalid_argument "Cache.create: size/ways/line mismatch") (fun () ->
      ignore (C.create { C.size_bytes = 128; ways = 3; line_bytes = 64 }));
  Alcotest.check_raises "negative size"
    (Invalid_argument "Cache.create: non-positive parameter") (fun () ->
      ignore (C.create { small with C.size_bytes = 0 }))

let test_cold_miss_then_hit () =
  let c = C.create small in
  check "first access misses" false (C.access c 0);
  check "same line hits" true (C.access c 32);
  check "next line misses" false (C.access c 64);
  check_int "two misses" 2 (C.misses c);
  check_int "three accesses" 3 (C.accesses c)

let test_lru_eviction () =
  let c = C.create small in
  (* Three lines mapping to the same set (stride = sets*line = 8*64). *)
  let a0 = 0 and a1 = 8 * 64 and a2 = 16 * 64 in
  ignore (C.access c a0);
  ignore (C.access c a1);
  (* Set is full (2 ways); touching a0 refreshes it, then a2 evicts a1. *)
  check "a0 still resident" true (C.access c a0);
  check "a2 misses" false (C.access c a2);
  check "a1 was evicted (LRU)" false (C.access c a1);
  check "a0 evicted by a1's reload" false (C.access c a0)

let test_working_set_fits () =
  let c = C.create small in
  (* 1KB working set in a 1KB cache: second sweep hits everywhere. *)
  for i = 0 to 15 do
    ignore (C.access c (i * 64))
  done;
  C.reset_stats c;
  for i = 0 to 15 do
    ignore (C.access c (i * 64))
  done;
  check_int "warm sweep: zero misses" 0 (C.misses c)

let test_working_set_thrashes () =
  let c = C.create small in
  (* 2KB working set in 1KB: LRU sweep thrashes completely. *)
  for _pass = 1 to 2 do
    for i = 0 to 31 do
      ignore (C.access c (i * 64))
    done
  done;
  check "second pass still misses" true (C.miss_rate c > 0.9)

let test_hierarchy_filtering () =
  let h =
    C.hierarchy
      [ { C.size_bytes = 128; ways = 2; line_bytes = 64 };
        { C.size_bytes = 1024; ways = 2; line_bytes = 64 } ]
  in
  (* 4 lines: miss everywhere first (level index 2 = memory). *)
  check_int "cold goes to memory" 2 (C.hierarchy_access h 0);
  check_int "l1 hit" 0 (C.hierarchy_access h 0);
  (* Fill L1 (2 lines) beyond capacity; older lines remain in L2. *)
  ignore (C.hierarchy_access h 64);
  ignore (C.hierarchy_access h 128);
  ignore (C.hierarchy_access h 192);
  check_int "evicted from l1, still in l2" 1 (C.hierarchy_access h 0)

let test_miss_rate_reset () =
  let c = C.create small in
  ignore (C.access c 0);
  C.reset_stats c;
  check_int "reset accesses" 0 (C.accesses c);
  check "rate zero on empty" true (C.miss_rate c = 0.0)

(* --- tracesim ------------------------------------------------------------- *)

let mem = Vmachine.Machines.neon_a57.Vmachine.Descr.mem

let kern name = (Tsvc.Registry.find_exn name).kernel

let test_layout_disjoint () =
  let k = kern "s000" in
  let l = T.layout ~n:100 ~line_bytes:64 k in
  let a0 = T.address l ~arr:"a" ~idx:0 in
  let b0 = T.address l ~arr:"b" ~idx:0 in
  check "arrays do not overlap" true (abs (a0 - b0) >= 100 * 4);
  check_int "element stride" 4 (T.address l ~arr:"a" ~idx:1 - a0)

let test_layout_unknown_array () =
  let l = T.layout ~n:100 ~line_bytes:64 (kern "s000") in
  Alcotest.check_raises "unknown"
    (Invalid_argument "Tracesim.address: unknown array zz") (fun () ->
      ignore (T.address l ~arr:"zz" ~idx:0))

let test_streaming_lives_in_l2 () =
  (* 32000-element f32 streams: beyond L1, inside the 2MB L2. *)
  let s = T.simulate mem ~n:32000 (kern "s000") in
  check "dominant level L2" true (T.dominant_level s = Mem.L2);
  check "no last-level misses once warm" true (s.T.bytes_moved_per_elem < 1.0)

let test_small_footprint_lives_in_l1 () =
  let s = T.simulate mem ~n:1000 (kern "s000") in
  check "dominant level L1" true (T.dominant_level s = Mem.L1)

let test_huge_footprint_hits_dram () =
  let s = T.simulate mem ~n:2_000_000 (kern "va") in
  check "dominant level DRAM" true (T.dominant_level s = Mem.Dram);
  (* A streaming copy moves about one line per 16 elements per array. *)
  check "bytes per element near 8" true
    (s.T.bytes_moved_per_elem > 4.0 && s.T.bytes_moved_per_elem < 16.0)

let test_gather_misses_l1 () =
  let s = T.simulate mem ~n:32000 (kern "vag") in
  let l1_rate =
    match s.T.per_level with
    | (Mem.L1, accs, misses) :: _ -> float_of_int misses /. float_of_int accs
    | _ -> 0.0
  in
  check "random gather thrashes L1" true (l1_rate > 0.3)

let test_agreement_whole_suite () =
  (* The headline validation: analytic level within one level of the
     simulated dominant level for every kernel (at a reduced size to keep
     the test fast). *)
  List.iter
    (fun (e : Tsvc.Registry.entry) ->
      let k = e.kernel in
      let s = T.simulate mem ~n:8000 k in
      let analytic =
        Mem.level_of mem ~footprint_bytes:(Vir.Kernel.footprint_bytes ~n:8000 k)
      in
      check
        (Printf.sprintf "%s agreement" k.Vir.Kernel.name)
        true
        (T.agrees ~analytic ~simulated:(T.dominant_level s)))
    Tsvc.Registry.all

(* --- stream path vs the interpreter-traced reference ---------------------- *)

let all_affine (k : Vir.Kernel.t) =
  List.for_all
    (function
      | Vir.Instr.Load { addr = Vir.Instr.Indirect _; _ }
      | Vir.Instr.Store { addr = Vir.Instr.Indirect _; _ } -> false
      | _ -> true)
    k.body

let same_as_traced mem ~n k =
  let name = Printf.sprintf "%s n=%d" k.Vir.Kernel.name n in
  check (name ^ " streams iff all accesses are affine") (all_affine k)
    (T.path mem ~n k = `Stream);
  let s = T.simulate mem ~n k in
  check (name ^ " stats equal the traced reference") true
    (s = T.simulate_traced mem ~n k);
  s

let test_stream_matches_traced () =
  List.iter
    (fun n ->
      List.iter
        (fun (e : Tsvc.Registry.entry) -> ignore (same_as_traced mem ~n e.kernel))
        Tsvc.Registry.all)
    [ 257; 1000; 8000 ]

(* The same on a three-level hierarchy, and past the last level, where
   [bytes_moved_per_elem] is no longer zero. *)
let test_stream_matches_traced_deep () =
  let xeon = Vmachine.Machines.xeon_avx2.Vmachine.Descr.mem in
  List.iter
    (fun (e : Tsvc.Registry.entry) -> ignore (same_as_traced xeon ~n:1000 e.kernel))
    Tsvc.Registry.all;
  List.iter
    (fun name ->
      let s = same_as_traced mem ~n:400_000 (kern name) in
      check (name ^ " misses the last level") true (s.T.bytes_moved_per_elem > 0.0))
    [ "va"; "s000"; "s119" ]

(* An affine subscript one past the end: the interpreter traces the access
   and then traps, and the stream path must not swallow that. *)
let test_stream_out_of_bounds_traps () =
  let module B = Vir.Builder in
  let b = B.make "oob_affine" in
  let i = B.loop b "i" Vir.Kernel.Tn in
  B.declare b ~extent:(Vir.Kernel.Lin (1, 0)) "b";
  B.store b "a" [ B.ix i ] (B.load b "b" [ B.ix ~off:1 i ]);
  let k = B.finish b in
  check "not streamed" true (T.path mem ~n:64 k = `Compiled);
  Alcotest.check_raises "simulate traps" (Vinterp.Env.Out_of_bounds ("b", 64))
    (fun () -> ignore (T.simulate mem ~n:64 k))

(* Six f32 arrays of n + 1 elements: at n = 1791 each array plus its
   16-line gap is exactly one 8 KiB way of the 32 KiB 4-way L1, so all six
   lines of an iteration fall in one set and evict each other.  Every line
   is resident right after its own access but not at the end of the
   iteration, so no run of iterations may be skipped as L1 hits. *)
let test_aliasing_lines_thrash () =
  let module B = Vir.Builder in
  let b = B.make "alias6" in
  let i = B.loop b "i" Vir.Kernel.Tn in
  List.iter
    (fun a -> B.declare b ~extent:(Vir.Kernel.Lin (1, 1)) a)
    [ "a"; "b"; "c"; "d"; "e"; "f" ];
  let ld a = B.load b a [ B.ix i ] in
  let sum =
    List.fold_left (fun acc a -> B.addf b acc (ld a)) (ld "b") [ "c"; "d"; "e"; "f" ]
  in
  B.store b "a" [ B.ix i ] sum;
  let k = B.finish b in
  let n = 1791 in
  check "streamed" true (T.path mem ~n k = `Stream);
  let s = T.simulate mem ~n k in
  check "equals the traced reference" true (s = T.simulate_traced mem ~n k);
  match s.T.per_level with
  | (Mem.L1, accs, misses) :: _ ->
      check_int "L1 accesses" (6 * n) accs;
      check_int "every L1 access misses" (6 * n) misses
  | _ -> Alcotest.fail "no L1 level"

let outcome f = try Ok (f ()) with e -> Error (Printexc.to_string e)

(* Random hierarchies, non-power-of-two lines and set counts included,
   under random synthetic kernels (single loops with gathers, and 2-d
   nests) at odd sizes: [simulate] must equal the reference, exceptions
   included. *)
let mem_gen =
  QCheck.Gen.(
    map
      (fun (line, (s1, s2, s3)) ->
        { mem with
          Vmachine.Descr.line_bytes = line;
          l1_bytes = line * 4 * s1;
          l2_bytes = line * 8 * s2;
          l3_bytes = (if s3 = 0 then 0 else line * 16 * s3) })
      (pair (oneofl [ 16; 24; 32; 48; 64; 96; 128 ])
         (triple (int_range 1 12) (int_range 1 24) (int_range 0 6))))

let prop_simulate_random_geometry =
  QCheck.Test.make ~count:150 ~name:"simulate = traced on random geometries"
    (QCheck.make
       ~print:(fun (m, seed, nest, n) ->
         Printf.sprintf "line %d l1 %d l2 %d l3 %d, %s %d, n = %d"
           m.Vmachine.Descr.line_bytes m.l1_bytes m.l2_bytes m.l3_bytes
           (if nest then "nest_kernel" else "kernel") seed n)
       QCheck.Gen.(
         quad mem_gen (int_bound 10_000) bool
           (map (fun h -> (2 * h) + 5) (int_bound 200))))
    (fun (m, seed, nest, n) ->
      let k =
        if nest then Vsynth.Generator.nest_kernel seed
        else Vsynth.Generator.kernel seed
      in
      outcome (fun () -> T.simulate m ~n k)
      = outcome (fun () -> T.simulate_traced m ~n k))

(* --- the compiled-body path ---------------------------------------------- *)

let same_outcome name ~n k =
  check (name ^ " runs compiled") true (T.path mem ~n k = `Compiled);
  let got = outcome (fun () -> T.simulate mem ~n k) in
  let want = outcome (fun () -> T.simulate_traced mem ~n k) in
  check (name ^ " raises") true (Result.is_error want);
  check (name ^ " raises as the reference does") true (got = want)

(* A gather one past the end: ip is a permutation of [0, n), so exactly
   one iteration, partway through the first pass, reads b[n]. *)
let test_compiled_gather_traps () =
  let module B = Vir.Builder in
  let b = B.make "gather_oob" in
  let i = B.loop b "i" Vir.Kernel.Tn in
  B.declare b ~extent:(Vir.Kernel.Lin (1, 0)) "b";
  let idx = B.load_index b "ip" [ B.ix i ] in
  B.store b "a" [ B.ix i ] (B.load_ix b "b" (B.addi b idx (B.ci 1)));
  same_outcome "gather b[ip[i]+1]" ~n:200 (B.finish b)

(* Integer division by zero: by a parameter that converts to 1, minus 1,
   and by an index-array element (the permutation holds one 0). *)
let test_compiled_division_traps () =
  let module B = Vir.Builder in
  let div name divisor =
    let b = B.make name in
    let i = B.loop b "i" Vir.Kernel.Tn in
    let q = B.bin b Vir.Types.I32 Vir.Op.Div i (divisor b i) in
    B.store b "a" [ B.ix i ] (B.cast b ~from_:Vir.Types.I32 ~to_:Vir.Types.F32 q);
    same_outcome name ~n:200 (B.finish b)
  in
  div "div_param" (fun b _ -> B.subi b (B.param b "p") (B.ci 1));
  div "div_index" (fun b i -> B.load_index b "ip" [ B.ix i ])

(* Every registry kernel at the A6 size takes the stream or the compiled
   path, and none raises.  A compiled kernel falls back to the interpreter
   only on a trap, which [simulate] re-raises, so a run that returns never
   used the interpreter. *)
let test_registry_census () =
  let n = 32000 in
  let count p =
    List.length
      (List.filter
         (fun (e : Tsvc.Registry.entry) -> T.path mem ~n e.kernel = p)
         Tsvc.Registry.all)
  in
  check_int "streamed" 137 (count `Stream);
  check_int "compiled" 14 (count `Compiled);
  check_int "interpreted" 0 (count `Interpreted);
  List.iter
    (fun (e : Tsvc.Registry.entry) ->
      check
        (e.kernel.Vir.Kernel.name ^ " does not raise")
        true
        (Result.is_ok (outcome (fun () -> T.simulate mem ~n e.kernel))))
    Tsvc.Registry.all

(* --- flat cache vs the array-of-arrays original ------------------------- *)

(* The cache as it was before flattening: per-set tag and age rows, [/] and
   [mod] address decoding, a list-walked hierarchy. *)
module Oracle = struct
  type t = {
    cfg : C.config;
    sets : int;
    tags : int array array;
    age : int array array;
    mutable clock : int;
    mutable accesses : int;
    mutable misses : int;
  }

  let create (cfg : C.config) =
    let sets = cfg.size_bytes / cfg.line_bytes / cfg.ways in
    { cfg; sets;
      tags = Array.make_matrix sets cfg.ways (-1);
      age = Array.make_matrix sets cfg.ways 0;
      clock = 0; accesses = 0; misses = 0 }

  let access t addr =
    t.clock <- t.clock + 1;
    t.accesses <- t.accesses + 1;
    let line = addr / t.cfg.line_bytes in
    let set = line mod t.sets in
    let tag = line / t.sets in
    let tags = t.tags.(set) and age = t.age.(set) in
    let hit_way = ref (-1) in
    for w = 0 to t.cfg.ways - 1 do
      if tags.(w) = tag then hit_way := w
    done;
    if !hit_way >= 0 then begin
      age.(!hit_way) <- t.clock;
      true
    end
    else begin
      t.misses <- t.misses + 1;
      let victim = ref 0 in
      for w = 1 to t.cfg.ways - 1 do
        if age.(w) < age.(!victim) then victim := w
      done;
      tags.(!victim) <- tag;
      age.(!victim) <- t.clock;
      false
    end

  let hierarchy_access levels addr =
    let rec go i = function
      | [] -> i
      | c :: rest -> if access c addr then i else go (i + 1) rest
    in
    go 0 levels

  let level_stats levels = List.map (fun c -> (c.accesses, c.misses)) levels
end

(* Random power-of-two geometries: 1-16 ways, 2-3 levels, and an address
   stream over a span a few times the largest level, so hits, conflict
   misses and evictions all occur. *)
let geometry_gen =
  QCheck.Gen.(
    let level =
      map3
        (fun ways set_log line_log ->
          { C.size_bytes = ways * (1 lsl set_log) * (1 lsl line_log);
            ways; line_bytes = 1 lsl line_log })
        (int_range 1 16) (int_range 0 5) (int_range 2 6)
    in
    int_range 2 3 >>= fun nlev -> list_repeat nlev level)

let stream_gen configs =
  let span =
    4 * List.fold_left (fun m (c : C.config) -> max m c.size_bytes) 1 configs
  in
  QCheck.Gen.(list_size (int_range 1 2000) (int_bound span))

let scenario =
  QCheck.make
    ~print:(fun (configs, addrs) ->
      Printf.sprintf "levels [%s], %d accesses"
        (String.concat "; "
           (List.map
              (fun (c : C.config) ->
                Printf.sprintf "%dB/%dw/%dB" c.size_bytes c.ways c.line_bytes)
              configs))
        (List.length addrs))
    QCheck.Gen.(geometry_gen >>= fun configs -> pair (return configs) (stream_gen configs))

let prop_flat_single_level =
  QCheck.Test.make ~count:200 ~name:"flat cache access = oracle per access"
    scenario (fun (configs, addrs) ->
      let cfg = List.hd configs in
      let c = C.create cfg and o = Oracle.create cfg in
      List.for_all (fun a -> C.access c a = Oracle.access o a) addrs
      && C.accesses c = o.accesses && C.misses c = o.misses)

let prop_flat_hierarchy =
  QCheck.Test.make ~count:200 ~name:"flat hierarchy = oracle per access"
    scenario (fun (configs, addrs) ->
      let h = C.hierarchy configs and o = List.map Oracle.create configs in
      List.for_all
        (fun a -> C.hierarchy_access h a = Oracle.hierarchy_access o a)
        addrs
      && C.level_stats h = Oracle.level_stats o)

let tests =
  [ Alcotest.test_case "geometry validation" `Quick test_geometry_validation;
    Alcotest.test_case "cold miss then hit" `Quick test_cold_miss_then_hit;
    Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
    Alcotest.test_case "working set fits" `Quick test_working_set_fits;
    Alcotest.test_case "working set thrashes" `Quick test_working_set_thrashes;
    Alcotest.test_case "hierarchy filtering" `Quick test_hierarchy_filtering;
    Alcotest.test_case "stats reset" `Quick test_miss_rate_reset;
    Alcotest.test_case "layout disjoint" `Quick test_layout_disjoint;
    Alcotest.test_case "layout unknown" `Quick test_layout_unknown_array;
    Alcotest.test_case "streaming in L2" `Quick test_streaming_lives_in_l2;
    Alcotest.test_case "small in L1" `Quick test_small_footprint_lives_in_l1;
    Alcotest.test_case "huge in DRAM" `Slow test_huge_footprint_hits_dram;
    Alcotest.test_case "gather thrashes L1" `Quick test_gather_misses_l1;
    Alcotest.test_case "suite agreement" `Slow test_agreement_whole_suite;
    Alcotest.test_case "stream = traced reference" `Slow test_stream_matches_traced;
    Alcotest.test_case "stream = traced, deep hierarchy" `Slow
      test_stream_matches_traced_deep;
    Alcotest.test_case "stream out of bounds traps" `Quick
      test_stream_out_of_bounds_traps;
    Alcotest.test_case "aliasing lines thrash" `Quick test_aliasing_lines_thrash;
    QCheck_alcotest.to_alcotest prop_simulate_random_geometry;
    Alcotest.test_case "compiled gather traps" `Quick test_compiled_gather_traps;
    Alcotest.test_case "compiled division traps" `Quick
      test_compiled_division_traps;
    Alcotest.test_case "registry census" `Slow test_registry_census;
    QCheck_alcotest.to_alcotest prop_flat_single_level;
    QCheck_alcotest.to_alcotest prop_flat_hierarchy ]
