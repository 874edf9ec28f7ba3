(* The run memo under Dataset's sample cache: each scalar kernel executes
   once per (kernel, n, seed, repeats, backend, fault plan), whatever the
   machine or transform.  Memoized samples must equal cold ones field for
   field, the key must cover what the execution reads, the memo must share
   the sample cache's lifecycle, and the sanitizer must still see every
   first execution. *)

open Costmodel

let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool
let check_string = Alcotest.check Alcotest.string

let transforms = [ Dataset.Llv; Dataset.Slp ]

let with_plan spec f =
  match Vfault.Plan.parse spec with
  | Error e -> Alcotest.failf "plan %S: %s" spec e
  | Ok plan ->
      Vfault.Inject.set_active plan;
      Fun.protect
        ~finally:(fun () ->
          Vfault.Inject.set_active Vfault.Plan.empty;
          Vfault.Inject.reset_counts ())
        f

let with_cache_disabled f =
  Dataset.set_cache_enabled false;
  Fun.protect ~finally:(fun () -> Dataset.set_cache_enabled true) f

let stats_string (s : Dataset.cache_stats) =
  Printf.sprintf "%d hits, %d misses, %d entries" s.hits s.misses s.entries

(* Every (machine, transform) build of the registry at one n and seed. *)
let sweep ?pool ~n () =
  List.concat_map
    (fun machine ->
      List.map
        (fun transform ->
          Dataset.build ?pool ~machine ~transform ~n Tsvc.Registry.all)
        transforms)
    Vmachine.Machines.all

let same_sample (cold : Dataset.sample) (memo : Dataset.sample) =
  let what f = cold.name ^ " " ^ f in
  check_string (what "exec_digest") cold.exec_digest memo.exec_digest;
  check_string (what "exec_backend") cold.exec_backend memo.exec_backend;
  check_bool (what "measured") true
    (Int64.equal
       (Int64.bits_of_float cold.measured)
       (Int64.bits_of_float memo.measured));
  List.iter
    (fun (field, get) ->
      check_bool (what field) true (compare (get cold) (get memo) = 0))
    [ ("raw", fun (s : Dataset.sample) -> s.raw);
      ("norm_raw", fun s -> s.norm_raw);
      ("rated", fun s -> s.rated);
      ("extended", fun s -> s.extended);
      ("absint", fun s -> s.absint);
      ("opt", fun s -> s.opt);
      ("deps", fun s -> s.deps);
      ("cert", fun s -> s.cert);
      ("vraw", fun s -> s.vraw) ];
  check_bool (what "whole record") true (compare cold memo = 0)

let test_memo_equals_cold () =
  let n = 257 in
  let cold = with_cache_disabled (fun () -> sweep ~n ()) in
  let run_on size =
    let pool = Vpar.Pool.create ~size in
    Fun.protect
      ~finally:(fun () -> Vpar.Pool.shutdown pool)
      (fun () ->
        Dataset.cache_clear ();
        let built = sweep ~pool ~n () in
        (built, Dataset.cache_stats (), Dataset.run_stats ()))
  in
  let memo1, samples1, runs1 = run_on 1 in
  let memo4, samples4, runs4 = run_on 4 in
  Dataset.cache_clear ();
  List.iter2
    (fun c m ->
      check_int "same sample count" (List.length c) (List.length m);
      List.iter2 same_sample c m)
    cold memo1;
  List.iter2 (List.iter2 same_sample) memo1 memo4;
  (* One execution per distinct kernel (n and seed are fixed here); every
     other sample of that kernel reuses it. *)
  let built = List.concat memo1 in
  let distinct =
    List.sort_uniq String.compare
      (List.map (fun (s : Dataset.sample) -> s.name) built)
  in
  check_int "misses = distinct kernels executed" (List.length distinct)
    runs1.misses;
  check_int "entries = misses" runs1.misses runs1.entries;
  check_int "hits cover the rest" (List.length built - runs1.misses) runs1.hits;
  check_bool "machines x transforms share executions" true (runs1.hits > 0);
  check_string "run counters at 1 and 4 workers" (stats_string runs1)
    (stats_string runs4);
  check_string "sample counters at 1 and 4 workers" (stats_string samples1)
    (stats_string samples4)

(* A slice of kernels that all vectorize and execute on NEON under LLV. *)
let slice () =
  let machine = Vmachine.Machines.neon_a57 in
  let entries = List.filteri (fun i _ -> i < 12) Tsvc.Registry.all in
  Dataset.cache_clear ();
  let built =
    Dataset.build ~machine ~transform:Dataset.Llv ~n:1024 entries
  in
  check_bool "slice executes" true (built <> []);
  (entries, List.length built)

let test_run_key () =
  let entries, _ = slice () in
  let misses () = (Dataset.run_stats ()).misses in
  let hits () = (Dataset.run_stats ()).hits in
  let build ?(seed = 1) ?(n = 1024) ?backend
      ?(machine = Vmachine.Machines.neon_a57) ?(transform = Dataset.Llv) () =
    List.length (Dataset.build ~seed ?backend ~machine ~transform ~n entries)
  in
  let misses_again label f =
    let before = misses () in
    let executed = f () in
    check_bool (label ^ " executes") true (executed > 0);
    check_int (label ^ " misses") (before + executed) (misses ())
  in
  (* What the execution does not read is shared: another machine or
     transform takes every execution from the memo. *)
  let m0 = misses () and h0 = hits () in
  ignore (build ~machine:Vmachine.Machines.sve_256 ());
  ignore (build ~transform:Dataset.Slp ());
  check_int "machine and transform share runs" m0 (misses ());
  check_bool "machine and transform hit" true (hits () > h0);
  misses_again "different seed" (fun () -> build ~seed:2 ());
  misses_again "different n" (fun () -> build ~n:1000 ());
  let other_backend =
    match Vexec.Backend.default () with
    | Vexec.Backend.Closure -> Vexec.Backend.Interp
    | Vexec.Backend.Interp -> Vexec.Backend.Closure
  in
  misses_again "different backend" (fun () -> build ~backend:other_backend ());
  misses_again "different fault plan" (fun () ->
      with_plan "seed=9;measure.spike=0" (fun () -> build ()));
  Dataset.cache_clear ()

let test_cache_clear_empties_memo () =
  ignore (slice ());
  check_bool "memo populated" true ((Dataset.run_stats ()).entries > 0);
  Dataset.cache_clear ();
  check_string "memo empty after cache_clear" "0 hits, 0 misses, 0 entries"
    (stats_string (Dataset.run_stats ()))

let test_cache_disabled_bypasses_memo () =
  Dataset.cache_clear ();
  with_cache_disabled (fun () ->
      let machine = Vmachine.Machines.neon_a57 in
      List.iter
        (fun transform ->
          check_bool "still builds samples" true
            (Dataset.build ~machine ~transform ~n:1024 Tsvc.Registry.all <> []))
        transforms;
      check_string "run counters stay at 0" "0 hits, 0 misses, 0 entries"
        (stats_string (Dataset.run_stats ())))

(* A corrupted sample is rebuilt from scratch, execution included: rate-1
   corruption fires on every sample-cache hit, so the second build evicts
   each sample and its run entry, and re-executes every kernel. *)
let test_corrupt_sample_reexecutes () =
  let entries = List.filteri (fun i _ -> i < 25) Tsvc.Registry.all in
  let machine = Vmachine.Machines.neon_a57 in
  let build () =
    Dataset.build ~machine ~transform:Dataset.Llv ~n:1024 entries
  in
  Dataset.cache_clear ();
  with_plan "cache.corrupt=1" (fun () ->
      ignore (build ());
      let s0 = Dataset.cache_stats () and r0 = Dataset.run_stats () in
      let rebuilt = build () in
      let s1 = Dataset.cache_stats () and r1 = Dataset.run_stats () in
      check_bool "sample misses grew" true (s1.misses > s0.misses);
      check_int "every rebuilt sample re-executed"
        (r0.misses + List.length rebuilt) r1.misses;
      check_int "no execution served from the memo" r0.hits r1.hits);
  Dataset.cache_clear ()

(* Under the sanitizer a seeded poison fires inside the first execution of
   each key and must surface at the measure site there.  The pool's join
   check is lifted for the two builds so each task's own failure shows in
   the quarantine ledger (with it, the build aborts at the join point).  A
   memo hit on the second machine would skip the execution and the check,
   and build a sample; instead the poisoned run was never recorded, so the
   second machine executes and fails again. *)
let test_sanitizer_sees_first_execution () =
  let entry = List.hd Tsvc.Registry.all in
  let measure_site reason =
    let needle = "Corruption(\"measure:" in
    let nl = String.length needle in
    let rec scan i =
      i + nl <= String.length reason
      && (String.sub reason i nl = needle || scan (i + 1))
    in
    scan 0
  in
  let was_active = Vexec.Sanitize.active () in
  Vexec.Sanitize.set_enabled true;
  Vexec.Sanitize.reset ();
  Vinterp.Env.clear_masters ();
  Vpar.Pool.clear_join_check ();
  Dataset.cache_clear ();
  Dataset.health_reset ();
  Fun.protect
    ~finally:(fun () ->
      Vpar.Pool.set_join_check (fun () ->
          Vexec.Sanitize.verify ~site:"pool-join");
      Vexec.Sanitize.set_enabled was_active;
      Vexec.Sanitize.reset ();
      Vinterp.Env.clear_masters ();
      Dataset.cache_clear ();
      Dataset.health_reset ())
    (fun () ->
      with_plan "seed=5;sanitize.poison=1" (fun () ->
          List.iter
            (fun machine ->
              check_bool "no sample built" true
                (Dataset.build ~machine ~transform:Dataset.Llv ~n:1024
                   [ entry ]
                = []))
            [ Vmachine.Machines.neon_a57; Vmachine.Machines.xeon_avx2 ]);
      let q = (Dataset.health ()).h_quarantined in
      check_int "both machines quarantined" 2 (List.length q);
      List.iter
        (fun (q : Dataset.quarantine) ->
          check_bool (q.q_machine ^ " failed at a measure site") true
            (measure_site q.q_reason))
        q;
      let r = Dataset.run_stats () in
      check_int "no execution served from the memo" 0 r.hits;
      check_int "no poisoned execution recorded" 0 r.entries;
      check_bool "corruption counted" true
        (Vexec.Sanitize.corruption_count () > 0))

let tests =
  [ Alcotest.test_case "memo on equals memo off" `Slow test_memo_equals_cold;
    Alcotest.test_case "run key" `Quick test_run_key;
    Alcotest.test_case "cache_clear empties memo" `Quick
      test_cache_clear_empties_memo;
    Alcotest.test_case "cache disabled bypasses memo" `Quick
      test_cache_disabled_bypasses_memo;
    Alcotest.test_case "corrupt sample re-executes" `Quick
      test_corrupt_sample_reexecutes;
    Alcotest.test_case "sanitizer sees first execution" `Quick
      test_sanitizer_sees_first_execution ]
