(* Benchmark harness.  It drives the vecmodel libraries and the serve
   daemon from outside: every timing is taken around a call into a
   library's public interface, never inside lib/.  Each invocation prints
   human-readable lines and ends with one JSON object on stdout; run.py
   turns those into the benchmark's result line.  See README.md. *)

open Costmodel
module J = Vserve.Jsonv

let now = Unix.gettimeofday

(* --- spans and counters ----------------------------------------------------
   Tracing is off in the measured runs: [span] is then a plain call.  In a
   traced run every span records its name, interval, parent and the kernel
   or request it worked on; spans live in memory and are written out as
   Chrome trace events when the run ends. *)

type span = {
  sp_id : int;
  sp_parent : int;
  sp_tid : int;
  sp_name : string;
  sp_key : string;
  sp_t0 : float;
  sp_t1 : float;
}

let tracing = ref false
let lock = Mutex.create ()
let spans : span list ref = ref []
let next_id = Atomic.make 1

(* Open spans of the calling domain, innermost first: work fanned out on
   the pool records its spans from the worker domains. *)
let stack_key = Domain.DLS.new_key (fun () -> [])
let current () = match Domain.DLS.get stack_key with p :: _ -> p | [] -> 0

let record ?(key = "") ?parent name t0 t1 =
  let id = Atomic.fetch_and_add next_id 1 in
  let parent = match parent with Some p -> p | None -> current () in
  let s =
    { sp_id = id; sp_parent = parent; sp_tid = (Domain.self () :> int);
      sp_name = name; sp_key = key; sp_t0 = t0; sp_t1 = t1 }
  in
  Mutex.protect lock (fun () -> spans := s :: !spans)

let span ?(key = "") ?parent name f =
  if not !tracing then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let outer = Domain.DLS.get stack_key in
    let parent =
      match (parent, outer) with
      | Some p, _ -> p
      | None, p :: _ -> p
      | None, [] -> 0
    in
    Domain.DLS.set stack_key (id :: outer);
    let t0 = now () in
    let finish () =
      let s =
        { sp_id = id; sp_parent = parent; sp_tid = (Domain.self () :> int);
          sp_name = name; sp_key = key; sp_t0 = t0; sp_t1 = now () }
      in
      Domain.DLS.set stack_key outer;
      Mutex.protect lock (fun () -> spans := s :: !spans)
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let counters : (string, float) Hashtbl.t = Hashtbl.create 32

let count name v =
  if !tracing then
    Mutex.protect lock (fun () ->
        Hashtbl.replace counters name
          (v +. Option.value ~default:0.0 (Hashtbl.find_opt counters name)))

let counter name = Option.value ~default:0.0 (Hashtbl.find_opt counters name)

let span_total name =
  List.fold_left
    (fun acc s -> if s.sp_name = name then acc +. (s.sp_t1 -. s.sp_t0) else acc)
    0.0 !spans

let write_chrome_trace path =
  let t_origin =
    List.fold_left (fun m s -> Float.min m s.sp_t0) infinity !spans
  in
  let us t = Float.round ((t -. t_origin) *. 1e6) in
  let events =
    List.rev_map
      (fun s ->
        J.Obj
          [ ("name", J.Str s.sp_name); ("cat", J.Str "layer");
            ("ph", J.Str "X"); ("ts", J.Num (us s.sp_t0));
            ("dur", J.Num (Float.max 0.0 (us s.sp_t1 -. us s.sp_t0)));
            ("pid", J.Num 1.0); ("tid", J.Num (float_of_int s.sp_tid));
            ( "args",
              J.Obj
                [ ("id", J.Num (float_of_int s.sp_id));
                  ("parent", J.Num (float_of_int s.sp_parent));
                  ("key", J.Str s.sp_key) ] ) ])
      !spans
  in
  let oc = open_out path in
  output_string oc
    (J.to_string
       (J.Obj [ ("displayTimeUnit", J.Str "ms"); ("traceEvents", J.List events) ]));
  output_char oc '\n';
  close_out oc

(* --- host facts -------------------------------------------------------------- *)

let vm_hwm_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> float_of_int kb /. 1024.0)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

let fingerprint ~seed =
  J.Obj
    [ ("ocaml", J.Str Sys.ocaml_version);
      ( "recommended_domain_count",
        J.Num (float_of_int (Domain.recommended_domain_count ())) );
      ("pool_size", J.Num (float_of_int (Vpar.Pool.default_size ())));
      ( "VECMODEL_JOBS",
        J.Str (Option.value ~default:"" (Sys.getenv_opt "VECMODEL_JOBS")) );
      ("backend", J.Str (Vexec.Backend.to_string (Vexec.Backend.default ())));
      ("seed", J.Num (float_of_int seed)) ]

let pool_fields () =
  let st = Vpar.Pool.stats () in
  [ ("vpar.workers", float_of_int (Vpar.Pool.default_size ()));
    ("vpar.retries", float_of_int st.Vpar.Pool.st_retries);
    ("vpar.timeouts", float_of_int st.Vpar.Pool.st_timeouts) ]

let emit fields =
  print_endline (J.to_string (J.Obj fields));
  flush stdout

let nums l = J.Obj (List.map (fun (k, v) -> (k, J.Num v)) l)

let percentile p xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

(* Fisher-Yates under an explicit seed: the same seed gives the same order. *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* --- set-up probe -----------------------------------------------------------
   What every report and build process pays before its first timed call:
   module initialisation, where the kernel registries are built.  On one
   CPU the pool runs fan-outs inline, so there is no pool to start. *)

let setup () = List.length (Tsvc.Registry.all @ Vapps.Registry.as_tsvc_entries)

(* --- report workload ---------------------------------------------------------
   The full paper grid in `vecmodel report` order, rendered the way the CLI
   renders it.  Its input is the paper's fixed configuration, so the seed
   changes nothing here; every experiment's output must match the
   reference digests in reference.txt.  (The outputs do not depend on the
   order or the worker count either: any order and VECMODEL_JOBS in {1,2}
   give the same digests.) *)

let experiment_ids =
  [ "f1"; "f2"; "f3"; "f4"; "f5"; "f6"; "f7"; "f8"; "f9"; "f10"; "f11"; "f12";
    "f13"; "t1"; "t2"; "a1"; "a2"; "a3"; "a4"; "a5"; "a6"; "a7"; "a8"; "a9";
    "a10" ]

let render_a6 (r : Experiment.a6_result) =
  let b = Buffer.create 512 in
  Printf.bprintf b "A6: memory-model agreement %d / %d on %s\n"
    r.Experiment.a6_agreeing r.a6_total r.a6_machine;
  List.iter
    (fun (row : Experiment.a6_row) ->
      Printf.bprintf b "A6 %s analytic %s simulated %s bytes/elem %.6f %b\n"
        row.a6_name row.a6_analytic row.a6_simulated row.a6_bytes_per_elem
        row.a6_agrees)
    r.a6_rows;
  Buffer.contents b

let render id =
  let r = Report.to_string in
  match id with
  | "f1" -> r (Experiment.f1 ())
  | "f2" -> r (Experiment.f2 ())
  | "f3" -> r (Experiment.f3 ())
  | "f4" -> r (Experiment.f4 ())
  | "f5" -> r (Experiment.f5 ())
  | "f6" -> r (Experiment.f6 ())
  | "f7" -> r (Experiment.f7 ())
  | "f8" -> r (Experiment.f8 ())
  | "f9" -> r (Experiment.f9 ())
  | "f10" -> r (Experiment.f10 ())
  | "f11" -> r (Experiment.f11 ())
  | "f12" -> r (Experiment.f12 ())
  | "f13" -> r (Experiment.f13 ())
  | "t2" -> r (Experiment.t2 ())
  | "a1" -> r (Experiment.a1 ())
  | "a2" ->
      let a, b = Experiment.a2 () in
      r a ^ r b
  | "a3" ->
      let a, b = Experiment.a3 () in
      r a ^ r b
  | "a4" -> r (Experiment.a4 ())
  | "a5" -> r (Experiment.a5 ())
  | "a6" -> render_a6 (Experiment.a6 ())
  | "a7" ->
      String.concat ""
        (List.map
           (fun (s : Select.summary) ->
             Printf.sprintf "A7 %-30s %14.2f Mcyc, optimal %d/%d\n"
               s.Select.sm_policy (s.Select.sm_total_cycles /. 1e6)
               s.Select.sm_optimal_picks s.Select.sm_kernels)
           (Experiment.a7 ()).Experiment.a7_rows)
  | "a8" -> r (Experiment.a8 ())
  | "a9" ->
      String.concat ""
        (List.map
           (fun (row : Experiment.a9_row) ->
             Printf.sprintf
               "A9 ic=%d geomean all %.2f, reductions %.2f (%d kernels)\n"
               row.Experiment.a9_ic row.a9_geo_all row.a9_geo_red
               row.a9_kernels)
           (Experiment.a9 ()).Experiment.a9_rows)
  | "a10" -> r (Experiment.a10 ())
  | "t1" ->
      let t = Experiment.t1 () in
      String.concat ""
        (Printf.sprintf "T1: LLV vs SLP on %s\n" t.Experiment.t1_kernel
        :: List.map
             (fun (row : Experiment.t1_row) ->
               Printf.sprintf "  %-4s baseline %.2f refined %.2f measured %.2f\n"
                 row.t1_transform row.t1_baseline row.t1_refined
                 row.t1_measured)
             t.Experiment.t1_rows)
  | other -> invalid_arg ("unknown experiment " ^ other)

let read_reference path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | exception End_of_file -> acc
    | line -> (
        match String.split_on_char ' ' (String.trim line) with
        | [ id; d ] -> go ((id, d) :: acc)
        | _ -> go acc)
  in
  let r = go [] in
  close_in ic;
  r

(* The traced pass makes the calls the experiments make internally
   explicit, so their time lands on the layer that does the work: the
   Dataset builds and the LOOCV row the grid shares are made first (the
   experiments then hit the caches), and A6's per-kernel trace loop is
   run from here with a span per kernel. *)
let traced_prewarm () =
  let samples machine transform =
    span "costmodel.dataset.build" ~key:machine.Vmachine.Descr.name (fun () ->
        Experiment.samples ~machine ~transform ())
  in
  let arm = samples Vmachine.Machines.neon_a57 Dataset.Llv in
  ignore (samples Vmachine.Machines.neon_a57 Dataset.Slp);
  ignore (samples Vmachine.Machines.xeon_avx2 Dataset.Slp);
  ignore
    (span "costmodel.fit" (fun () ->
         Linmodel.fit ~method_:Linmodel.Nnls ~features:Linmodel.Rated
           ~target:Linmodel.Speedup arm));
  ignore
    (span "costmodel.loocv" (fun () ->
         Experiment.loocv_predictions ~method_:Linmodel.Nnls
           ~features:Linmodel.Rated ~target:Linmodel.Speedup arm))

let traced_a6 () =
  let config = Experiment.default_config in
  let machine = Vmachine.Machines.neon_a57 in
  let mem = machine.Vmachine.Descr.mem in
  let exemplars = [ "s000"; "vag"; "s2101"; "vdotr"; "s127" ] in
  (* Fanned out on the pool as in Experiment.a6; spans recorded on pool
     workers name this experiment's span as their parent. *)
  let parent = current () in
  let rows =
    Vpar.Pool.parallel_map
      (fun (e : Tsvc.Registry.entry) ->
        let k = e.kernel in
        let key = k.Vir.Kernel.name in
        let s =
          span "vmachine.tracesim" ~parent ~key (fun () ->
              Vmachine.Tracesim.simulate mem ~n:config.n k)
        in
        count "vmachine.trace_accesses"
          (float_of_int s.Vmachine.Tracesim.total_accesses);
        (* The same two passes simulate makes, without the trace sink:
           what the interpreter alone costs inside the trace loop. *)
        let env = Vinterp.Env.create ~seed:42 ~n:config.n k in
        span "vinterp.trace_run" ~parent ~key (fun () ->
            ignore (Vinterp.Interp.run_in env k);
            ignore (Vinterp.Interp.run_in env k));
        let analytic =
          Vmachine.Memmodel.level_of mem
            ~footprint_bytes:(Vir.Kernel.footprint_bytes ~n:config.n k)
        in
        let simulated = Vmachine.Tracesim.dominant_level s in
        let ok = Vmachine.Tracesim.agrees ~analytic ~simulated in
        ( ok,
          if (not ok) || List.mem key exemplars then
            Some
              { Experiment.a6_name = key;
                a6_analytic = Vmachine.Memmodel.level_to_string analytic;
                a6_simulated = Vmachine.Memmodel.level_to_string simulated;
                a6_bytes_per_elem = s.Vmachine.Tracesim.bytes_moved_per_elem;
                a6_agrees = ok }
          else None ))
      Tsvc.Registry.all
  in
  render_a6
    { Experiment.a6_machine = machine.Vmachine.Descr.name;
      a6_total = List.length rows;
      a6_agreeing = List.length (List.filter fst rows);
      a6_rows = List.filter_map snd rows }

let report_pass ~seed ~reference ~print_digests =
  let t0 = now () in
  if !tracing then span "costmodel.prewarm" traced_prewarm;
  let results =
    List.map
      (fun id ->
        let t = now () in
        let text =
          span ("costmodel.experiment." ^ id) (fun () ->
              if !tracing && id = "a6" then traced_a6 () else render id)
        in
        (id, Digest.to_hex (Digest.string text), now () -. t))
      experiment_ids
  in
  let report_s = now () -. t0 in
  if print_digests then
    List.iter (fun (id, d, _) -> Printf.printf "%s %s\n" id d) results;
  let bad =
    List.filter_map
      (fun (id, d, _) ->
        match List.assoc_opt id reference with
        | Some want when want = d -> None
        | _ -> Some (J.Str id))
      results
  in
  List.iter
    (fun (id, _, s) -> Printf.printf "# report %-4s %8.3f s\n" id s)
    results;
  let ds = Dataset.cache_stats () and ls = Experiment.loocv_cache_stats () in
  let ratio (c : Dataset.cache_stats) =
    float_of_int c.hits /. float_of_int (max 1 (c.hits + c.misses))
  in
  let h = Dataset.health () in
  let layers =
    [ ("vmachine.tracesim_s", span_total "vmachine.tracesim");
      ("vmachine.trace_accesses", counter "vmachine.trace_accesses");
      ( "vmachine.trace_accesses_per_s",
        counter "vmachine.trace_accesses"
        /. Float.max 1e-9 (span_total "vmachine.tracesim") );
      ("vinterp.trace_run_s", span_total "vinterp.trace_run");
      ("costmodel.dataset.build_s", span_total "costmodel.dataset.build");
      ("costmodel.dataset.hit_ratio", ratio ds);
      ( "costmodel.dataset.quarantined",
        float_of_int (List.length h.Dataset.h_quarantined) );
      ("costmodel.fit_s", span_total "costmodel.fit");
      ("costmodel.loocv_s", span_total "costmodel.loocv");
      ("costmodel.loocv.hit_ratio", ratio ls);
      ("vinterp.masters", float_of_int (Vinterp.Env.fold_masters (fun _ _ n -> n + 1) 0)) ]
    @ pool_fields ()
  in
  emit
    [ ("report_s", J.Num report_s);
      ("rss_mb", J.Num (vm_hwm_mb None));
      ("attempted", J.Num (float_of_int (List.length results)));
      ("failed", J.Num (float_of_int (List.length bad + List.length h.h_quarantined)));
      ("mismatched", J.List bad);
      ("layers", nums layers);
      ("fingerprint", fingerprint ~seed) ]

(* --- build workload -----------------------------------------------------------
   Cold, registry-wide Dataset.build: TSVC + application kernels x every
   machine x {LLV, SLP} at two problem sizes, alternating two data seeds
   derived from the workload seed, for a fixed number of sweeps.  The
   sample cache is cleared before every sweep; the process-wide
   master-buffer memo is not, so later sweeps hit it where n and seed
   repeat. *)

let build_entries () = Tsvc.Registry.all @ Vapps.Registry.as_tsvc_entries
let build_sizes = [ 4096; 32000 ]
let transforms = [ Dataset.Llv; Dataset.Slp ]

let data_seeds seed = [ 1 + (2 * seed); 2 + (2 * seed) ]

(* The number of sweeps follows from --seconds alone, never from how fast
   the host is: the first sweep per data seed misses Env's master-buffer
   memo and later ones hit it, so a count that grew with the host's speed
   would change the cold/warm mix behind every figure.  A sweep took
   1.2-2.8 s on the host in README.md; the count is even, so both data
   seeds get the same number of sweeps. *)
let build_sweep_s = 2.5

let build_sweeps ~seconds =
  2 * max 1 (int_of_float (Float.round (seconds /. build_sweep_s /. 2.0)))

(* One kernel per Dataset.build call (what `vecmodel predict` does), so
   every sample has its own build latency.  Returns the samples with
   their problem size, the sweep's total build time and the latency of
   each call that produced a sample. *)
let sweep ~entries ~seed =
  Dataset.cache_clear ();
  let total = ref 0.0 and lat = ref [] in
  let samples =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun machine ->
            List.concat_map
              (fun transform ->
                List.concat_map
                  (fun e ->
                    let t0 = now () in
                    let built = Dataset.build ~seed ~machine ~transform ~n [ e ] in
                    let dt = now () -. t0 in
                    total := !total +. dt;
                    if built <> [] then lat := dt :: !lat;
                    List.map (fun s -> (n, s)) built)
                  entries)
              transforms)
          Vmachine.Machines.all)
      build_sizes
  in
  (samples, !total, !lat)

(* One sample the way Dataset.build makes it, with a span around every
   public call: vectorize, machine model, certificate, lowering, closure
   compile, environment, execution, digest, features. *)
let traced_sample ~seed ~machine ~transform ~n (e : Tsvc.Registry.entry) =
  let k = e.kernel in
  let key = k.Vir.Kernel.name in
  let vf = Vmachine.Descr.vf_for_kernel machine k in
  if vf < 2 then None
  else begin
    count "vvect.attempts" 1.0;
    match
      span "vvect.vectorize" ~key (fun () -> Dataset.apply_transform transform ~vf k)
    with
    | None -> None
    | Some vk ->
        count "vvect.vectorized" 1.0;
        ignore
          (span "vmachine.measure" ~key (fun () ->
               Vmachine.Measure.measure ~seed machine ~n vk));
        ignore (span "vanalysis.cert" ~key (fun () -> Vanalysis.Cert.certify ~vf k));
        let prog = span "vexec.lower" ~key (fun () -> Vexec.Program.lower k) in
        let st, cl =
          span "vexec.compile" ~key (fun () ->
              let st = Vexec.Flat.create prog in
              (st, Vexec.Closure.compile st))
        in
        let env =
          span "vinterp.env_init" ~key (fun () ->
              let eff = Vexec.Effects.of_kernel k in
              Vinterp.Env.create ~seed ~readonly:(Vexec.Effects.readonly eff) ~n k)
        in
        let digest =
          match span "vexec.run" ~key (fun () -> Vexec.Closure.run_in st cl env) with
          | reds -> span "vexec.digest" ~key (fun () -> Vexec.Backend.digest env reds)
          | exception ((Vinterp.Env.Out_of_bounds _ | Invalid_argument _) as ex) ->
              count "vexec.traps" 1.0;
              "trap:" ^ Printexc.to_string ex
        in
        span "vmachine.measure" ~key (fun () ->
            ignore (Vmachine.Sched.scalar_estimate machine ~n k);
            ignore (Vmachine.Sched.vector_estimate machine ~n vk));
        let f name g = ignore (span ("costmodel.feature." ^ name) ~key g) in
        f "basic" (fun () ->
            ignore (Feature.counts k);
            ignore (Feature.rated k);
            ignore (Feature.extended k);
            Feature.vcounts vk);
        f "normraw" (fun () -> Feature.counts (Vanalysis.Opt.normalize k));
        f "absint" (fun () -> Feature.absint ~n ~vf k);
        f "opt" (fun () -> Feature.opt ~n ~vf k);
        f "deps" (fun () -> Feature.deps ~n ~vf k);
        f "cert" (fun () -> Feature.cert ~n ~vf k);
        Some digest
  end

let traced_sweep ~entries ~seed =
  let parent = current () in
  List.concat_map
    (fun n ->
      List.concat_map
        (fun machine ->
          List.concat_map
            (fun transform ->
              List.filter_map Fun.id
                (Vpar.Pool.parallel_map
                   (fun (e : Tsvc.Registry.entry) ->
                     Option.map
                       (fun d -> (e.kernel.Vir.Kernel.name, n, d))
                       (span "costmodel.sample" ~parent
                          ~key:e.kernel.Vir.Kernel.name (fun () ->
                            traced_sample ~seed ~machine ~transform ~n e)))
                   entries))
            transforms)
        Vmachine.Machines.all)
    build_sizes

let build_workload ~seed ~seconds =
  let entries = build_entries () in
  let seeds = data_seeds seed in
  (* Digest of every (kernel, n, data seed) seen so far: all later sweeps
     must reproduce it, and a seeded eighth is checked against the
     reference interpreter outside the timed window. *)
  let seen : (string * int * int, string) Hashtbl.t = Hashtbl.create 1024 in
  let rng = Random.State.make [| seed; 0x8 |] in
  let failed = ref 0 and attempted = ref 0 and ref_checked = ref 0 in
  let check ~dseed (n, (s : Dataset.sample)) =
    incr attempted;
    let key = (s.name, n, dseed) in
    match Hashtbl.find_opt seen key with
    | Some d -> if d <> s.exec_digest then incr failed
    | None ->
        Hashtbl.replace seen key s.exec_digest;
        if Random.State.int rng 8 = 0 then begin
          incr ref_checked;
          let reference =
            Vmachine.Measure.execute ~backend:Vexec.Backend.Interp ~seed:dseed
              ~n s.kernel
          in
          if reference.Vmachine.Measure.exec_digest <> s.exec_digest then
            incr failed
        end
  in
  let times = ref [] and lats = ref [] and built = ref 0 in
  for i = 0 to build_sweeps ~seconds - 1 do
    let dseed = List.nth seeds (i mod List.length seeds) in
    let samples, dt, lat = sweep ~entries ~seed:dseed in
    times := dt :: !times;
    lats := List.rev_append lat !lats;
    built := !built + List.length samples;
    List.iter (check ~dseed) samples;
    Printf.printf "# build sweep %d seed %d: %d samples in %.3f s\n" i dseed
      (List.length samples) dt
  done;
  let quarantined = List.length (Dataset.health ()).Dataset.h_quarantined in
  let total = List.fold_left ( +. ) 0.0 !times in
  let layers =
    if not !tracing then []
    else begin
      (* The sweep again, call by call: once untraced, then with a span
         around every call (their difference is the tracing overhead),
         checked against the digests the measured sweeps produced. *)
      let dseed = List.hd seeds in
      let timed_replica () =
        let t0 = now () in
        let r = span "costmodel.sweep" (fun () -> traced_sweep ~entries ~seed:dseed) in
        (r, now () -. t0)
      in
      tracing := false;
      let _, untraced_s = timed_replica () in
      tracing := true;
      let traced, traced_s = timed_replica () in
      List.iter
        (fun (name, n, d) ->
          incr attempted;
          match Hashtbl.find_opt seen (name, n, dseed) with
          | Some want when want = d -> ()
          | _ -> incr failed)
        traced;
      let _, plain_s, _ =
        span "costmodel.dataset.build" (fun () -> sweep ~entries ~seed:dseed)
      in
      [ ("vexec.run_s", span_total "vexec.run");
        ("vexec.lower_s", span_total "vexec.lower");
        ("vexec.compile_s", span_total "vexec.compile");
        ("vexec.digest_s", span_total "vexec.digest");
        ("vexec.traps", counter "vexec.traps");
        ("vinterp.env_init_s", span_total "vinterp.env_init");
        ( "vinterp.masters",
          float_of_int (Vinterp.Env.fold_masters (fun _ _ n -> n + 1) 0) );
        ("vvect.vectorize_s", span_total "vvect.vectorize");
        ( "vvect.vectorized_ratio",
          counter "vvect.vectorized" /. Float.max 1.0 (counter "vvect.attempts") );
        ("vmachine.measure_s", span_total "vmachine.measure");
        ("vanalysis.cert_s", span_total "vanalysis.cert");
        ("costmodel.dataset.build_s", plain_s);
        ("costmodel.dataset.quarantined", float_of_int quarantined);
        ("trace.overhead_ratio", (traced_s -. untraced_s) /. untraced_s) ]
      @ List.map
          (fun f -> ("costmodel.feature." ^ f ^ "_s", span_total ("costmodel.feature." ^ f)))
          [ "basic"; "normraw"; "absint"; "opt"; "deps"; "cert" ]
    end
  in
  emit
    [ ("sample_p50_ms", J.Num (1000.0 *. percentile 0.5 !lats));
      ("samples", J.Num (float_of_int !built));
      ("samples_per_s", J.Num (float_of_int !built /. total));
      ("reference_checked", J.Num (float_of_int !ref_checked));
      ("rss_mb", J.Num (vm_hwm_mb None));
      ("attempted", J.Num (float_of_int !attempted));
      ("failed", J.Num (float_of_int (!failed + quarantined)));
      ("layers", nums (layers @ pool_fields ()));
      ("fingerprint", fingerprint ~seed) ]

(* --- serve workload -----------------------------------------------------------
   A real `vecmodel serve` daemon with a fitted NNLS cert model, driven by
   one client process over two connections: Zipf-skewed kernels, mostly
   predict plus lint, certify, stats and a few reloads of the same model.
   The nominal step is an open loop of seeded exponential arrivals; its
   latency runs from each request's due time, so a stalled daemon is
   charged for the requests queued behind the stall.  The saturation step
   is a closed loop that keeps a fixed number of requests outstanding and
   gives the capacity. *)

let serve_machine = Vmachine.Machines.neon_a57
let serve_n = 32000

(* The traffic.  Each figure is either derived from a measurement or an
   assumption, and says which; README.md gives the basis of each.

   - The nominal rate is a quarter of the lowest capacity measured on the
     host described in README.md (about 2000 req/s, client and daemon on
     one CPU), so the nominal step stays well below saturation in every
     host period seen.
   - The p99 limit of the saturation step is an assumption.  It is about 65 times
     the in-process p99 of predict (0.755 ms), so a step fails when the
     queue grows, not on one stall of the shared host.
   - The operation mix is an assumption: only its shape is given (mostly
     predict; lint, certify and stats; a few reloads).
   - The Zipf exponent 0.99 is YCSB's default request distribution
     (Cooper et al., "Benchmarking Cloud Serving Systems with YCSB",
     SoCC 2010). *)
let nominal_rate = 500.0
let p99_limit_ms = 50.0

(* The capacity is the throughput of a closed loop that keeps
   [saturation_window] requests outstanding: the daemon always has work
   queued, yet its backlog cannot grow, and every request waits behind at
   most seven others (a few ms at the service times seen, far below the
   p99 limit).  The step's p99 must still stay under the limit.  The step
   runs a fixed number of requests, so a faster host or daemon does not
   change how much work the step does.  README.md says why this replaced
   a ramp over a ladder of open-loop rates. *)
let saturation_window = 8
let saturation_requests = 30000
let serve_rounds = 6

(* A step's p99 is the median over consecutive windows of about 1000
   requests (in due order), each with about ten beyond its p99: a stretch
   of contention on a shared host then moves the windows it covers, not
   the step's figure.  Its p50 is taken over all its requests at once.
   The host's speed switches between two states (see README.md), so the
   windows' p50s fall into two groups, and their median would jump from
   one group to the other as the share of time in each state crosses one
   half; the p50 of all requests moves with that share smoothly. *)
let windowed ~w p lat =
  let a = Array.of_list lat in
  let size = Array.length a / w in
  percentile 0.5
    (List.init w (fun i ->
         percentile p (Array.to_list (Array.sub a (i * size) size))))

(* What one step measured, or several steps of one kind pooled. *)
type step = {
  st_reqs : req array;
  st_lat : float list;  (* ms from due time (closed loop: from sending), answered requests *)
  st_late : float list;  (* ms the generator sent late *)
  st_p50 : float;
  st_p99 : float;
  st_answered : int;
  st_busy_s : float;  (* from the step's start to its last answer *)
  st_pass : bool;
  st_max_backlog : int;
}

and req = {
  r_id : int;
  r_due : float;  (* seconds from the step's start *)
  r_kind : op_kind;
  r_kernel : string;
  mutable r_sent : float;
  mutable r_recv : float;
  mutable r_ok : bool;
}

and op_kind = K_predict | K_lint | K_certify | K_stats | K_reload

let latency_figures lat =
  let w = max 1 (int_of_float (Float.round (float_of_int (List.length lat) /. 1000.0))) in
  (percentile 0.5 lat, windowed ~w 0.99 lat)

(* Answered requests per second while the step ran. *)
let achieved st = float_of_int st.st_answered /. Float.max 1e-9 st.st_busy_s

(* Steps of one kind, pooled into one figure as if they were one step. *)
let pool_steps steps =
  let lat = List.concat_map (fun st -> st.st_lat) steps in
  let p50, p99 = latency_figures lat in
  { st_reqs = Array.concat (List.map (fun st -> st.st_reqs) steps);
    st_lat = lat;
    st_late = List.concat_map (fun st -> st.st_late) steps;
    st_p50 = p50;
    st_p99 = p99;
    st_answered = List.fold_left (fun acc st -> acc + st.st_answered) 0 steps;
    st_busy_s = List.fold_left (fun acc st -> acc +. st.st_busy_s) 0.0 steps;
    st_pass = List.for_all (fun st -> st.st_pass) steps;
    st_max_backlog = List.fold_left (fun m st -> max m st.st_max_backlog) 0 steps }

let kind_name = function
  | K_predict -> "predict"
  | K_lint -> "lint"
  | K_certify -> "certify"
  | K_stats -> "stats"
  | K_reload -> "reload"

let work_dir = ".perfbench-work"

let ensure_work_dir () =
  if not (Sys.file_exists work_dir) then Unix.mkdir work_dir 0o755

type daemon = { pid : int; sock : string; model : string }

let connect sock =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

(* Blocking request/response on a fresh connection: set-up and control. *)
let call sock line =
  match connect sock with
  | None -> None
  | Some fd ->
      let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
      output_string oc (line ^ "\n");
      flush oc;
      let r = try Some (input_line ic) with End_of_file -> None in
      Unix.close fd;
      r

let request_line id op =
  Vserve.Proto.request_to_line
    { Vserve.Proto.rq_id = id; rq_client = ""; rq_op = op }

let live_daemons : int list ref = ref []

let stop_daemon d =
  ignore (call d.sock (request_line "bye" Vserve.Proto.Shutdown));
  let deadline = now () +. 5.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  wait ();
  live_daemons := List.filter (( <> ) d.pid) !live_daemons;
  List.iter
    (fun f -> try Sys.remove f with Sys_error _ -> ())
    [ d.model; d.sock ^ ".log" ]

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_daemons)

(* Set-up: fit and save the model, start the daemon, wait until it
   answers. *)
let start_daemon ~vecmodel ~seed ~tag =
  ensure_work_dir ();
  let model = Printf.sprintf "%s/model-%d-%d.txt" work_dir (Unix.getpid ()) tag in
  let sock = Printf.sprintf "%s/serve-%d-%d.sock" work_dir (Unix.getpid ()) tag in
  Dataset.cache_clear ();
  let samples =
    span "costmodel.dataset.build" (fun () ->
        Dataset.build ~seed ~machine:serve_machine ~transform:Dataset.Llv
          ~n:serve_n Tsvc.Registry.all)
  in
  let m =
    span "costmodel.fit" (fun () ->
        Linmodel.fit ~method_:Linmodel.Nnls ~features:Linmodel.Cert
          ~target:Linmodel.Speedup samples)
  in
  Linmodel.save m model;
  let log = Unix.openfile (sock ^ ".log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  (* Admission and rate limits are opened up: the open-loop client must
     see the daemon's latency, not its refusals.  The daemon inherits the
     client's CPU pinning, so both share one CPU. *)
  let argv =
    [| vecmodel; "serve"; "--features"; "cert"; "--model"; model; "--socket";
       sock; "--queue"; "1000000"; "--rate-limit"; "0" |]
  in
  let pid = Unix.create_process argv.(0) argv Unix.stdin log log in
  Unix.close log;
  live_daemons := pid :: !live_daemons;
  let d = { pid; sock; model } in
  let deadline = now () +. 60.0 in
  let rec ready () =
    match call sock (request_line "ready" Vserve.Proto.Health) with
    | Some _ -> ()
    | None when now () < deadline ->
        Unix.sleepf 0.002;
        ready ()
    | None -> failwith "serve daemon did not come up"
  in
  ready ();
  (d, samples)

(* The operation mix (an assumption, see the traffic notes above) and the
   Zipf exponent of kernel popularity (YCSB's default). *)
let op_mix =
  [ (0.85, K_predict); (0.06, K_lint); (0.06, K_certify); (0.025, K_stats);
    (0.005, K_reload) ]

let zipf_s = 0.99

(* Popularity ranks come from a fixed permutation, not from the seed: every
   seed then draws from the same request-cost distribution, and only the
   arrival times and the individual draws vary.  Holds the names in rank
   order and their cumulative weights. *)
let zipf names =
  let names = Array.of_list (shuffle (Random.State.make [| 0x21f |]) names) in
  let acc = ref 0.0 in
  let cum =
    Array.mapi
      (fun i _ ->
        acc := !acc +. (1.0 /. (float_of_int (i + 1) ** zipf_s));
        !acc)
      names
  in
  (names, cum)

let draw rng (names, cum) =
  let last = Array.length cum - 1 in
  let x = Random.State.float rng cum.(last) in
  let rec pick i = if i >= last || cum.(i) >= x then names.(i) else pick (i + 1) in
  pick 0

let pick_op u =
  let rec go acc = function
    | [ (_, k) ] -> k
    | (p, k) :: tl -> if u < acc +. p then k else go (acc +. p) tl
    | [] -> K_predict
  in
  go 0.0 op_mix

let next_req_id = ref 0

(* The arrivals of one step at [rate]: as many as fall within [`Seconds d],
   or exactly [`Requests c].  Each step has a generator of its own, seeded
   by the workload seed and the step's tag, so a step's requests do not
   depend on which steps ran before it. *)
let step_requests ~seed ~tag ~predict ~other ~rate limit =
  let rng = Random.State.make [| seed; 0x5e; tag |] in
  let rec arrivals t count acc =
    let t = t -. (log (1.0 -. Random.State.float rng 1.0) /. rate) in
    let stop = match limit with `Seconds d -> t > d | `Requests c -> count >= c in
    if stop then Array.of_list (List.rev acc)
    else begin
      let kind = pick_op (Random.State.float rng 1.0) in
      let kernel =
        match kind with
        | K_predict -> draw rng predict
        | K_lint | K_certify -> draw rng other
        | K_stats | K_reload -> ""
      in
      incr next_req_id;
      arrivals t (count + 1)
        ({ r_id = !next_req_id; r_due = t; r_kind = kind; r_kernel = kernel;
           r_sent = nan; r_recv = nan; r_ok = false }
        :: acc)
    end
  in
  arrivals 0.0 0 []

let op_of d r =
  match r.r_kind with
  | K_predict -> Vserve.Proto.Predict { kernel = r.r_kernel; machine = None; vf = None }
  | K_lint -> Vserve.Proto.Lint { kernel = r.r_kernel }
  | K_certify -> Vserve.Proto.Certify { kernel = r.r_kernel; vf = None }
  | K_stats -> Vserve.Proto.Stats
  | K_reload -> Vserve.Proto.Reload { path = d.model }

(* Runs one step and waits until every request of the step is answered.
   In an open loop a request is sent when it is due; with [~window:w] the
   loop is closed and a request is sent whenever fewer than [w] are
   outstanding.  Requests still open after 30 s, or on a connection the
   daemon closed, are lost.

   The client polls without sleeping, at the lowest priority (see
   [serve_workload]).  Its CPU then never halts between requests: on a
   virtual machine a halted CPU wakes through the hypervisor, and that
   wake-up, not the daemon, set most of the spread of the nominal p50
   (0.45-0.69 ms over four runs with a sleeping client, against
   0.31-0.38 ms polling, interleaved on one host).  The daemon preempts
   the client whenever it has work. *)
let run_step ?window ~conns ~daemon ~(check : req -> J.t -> bool) (reqs : req array) =
  let by_id = Hashtbl.create (Array.length reqs) in
  Array.iter (fun r -> Hashtbl.replace by_id (string_of_int r.r_id) r) reqs;
  let nconn = Array.length conns in
  let bufs = Array.init nconn (fun _ -> Buffer.create 65536) in
  let chunk = Bytes.create 65536 in
  let alive = Array.make nconn true in
  let outstanding = ref 0 and max_backlog = ref 0 in
  let answered = ref 0 in
  let handle_line line =
    let t = now () in
    match Vserve.Proto.response_of_line line with
    | Error _ -> ()
    | Ok resp -> (
        match Hashtbl.find_opt by_id resp.Vserve.Proto.rs_id with
        | None -> ()
        | Some r when not (Float.is_nan r.r_recv) -> r.r_ok <- false
        | Some r ->
            r.r_recv <- t;
            decr outstanding;
            incr answered;
            r.r_ok <-
              (match resp.rs_result with
              | Ok fields -> resp.rs_degraded = [] && check r (J.Obj fields)
              | Error _ -> false))
  in
  let drain_fd i =
    match Unix.read conns.(i) chunk 0 (Bytes.length chunk) with
    | 0 -> alive.(i) <- false
    | k ->
        Buffer.add_subbytes bufs.(i) chunk 0 k;
        let s = Buffer.contents bufs.(i) in
        let parts = String.split_on_char '\n' s in
        let rec go = function
          | [ rest ] ->
              Buffer.clear bufs.(i);
              Buffer.add_string bufs.(i) rest
          | line :: tl ->
              handle_line line;
              go tl
          | [] -> ()
        in
        go parts
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> alive.(i) <- false
  in
  let live () = List.filteri (fun i _ -> alive.(i)) (Array.to_list conns) in
  let poll () =
    match Unix.select (live ()) [] [] 0.0 with
    | rs, _, _ ->
        Array.iteri (fun i fd -> if List.mem fd rs then drain_fd i) conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let t0 = now () in
  let n = Array.length reqs in
  let next = ref 0 in
  let may_send r =
    match window with
    | None -> t0 +. r.r_due <= now ()
    | Some w -> !outstanding < w
  in
  while !next < n do
    while !next < n && may_send reqs.(!next) do
      let r = reqs.(!next) in
      let line = request_line (string_of_int r.r_id) (op_of daemon r) ^ "\n" in
      let c = r.r_id mod nconn in
      r.r_sent <- now ();
      let len = String.length line in
      let off = ref 0 in
      (try
         while alive.(c) && !off < len do
           off := !off + Unix.write_substring conns.(c) line !off (len - !off)
         done
       with Unix.Unix_error _ -> alive.(c) <- false);
      if alive.(c) then begin
        incr outstanding;
        if !outstanding > !max_backlog then max_backlog := !outstanding
      end;
      incr next
    done;
    poll ()
  done;
  let backlog_at_end = !outstanding in
  let drain_deadline = now () +. 30.0 in
  while !outstanding > 0 && now () < drain_deadline && live () <> [] do
    poll ()
  done;
  (t0, backlog_at_end, !max_backlog, !answered)

let serve_workload ~vecmodel ~seed ~seconds =
  (* Set up nine times and keep the last daemon: set-up time is the
     median of the nine. *)
  let setups = ref [] in
  let d = ref None in
  for tag = 1 to 9 do
    let t0 = now () in
    let daemon, samples = start_daemon ~vecmodel ~seed ~tag in
    setups := (now () -. t0) :: !setups;
    (match !d with Some (old, _) -> stop_daemon old | None -> ());
    d := Some (daemon, samples)
  done;
  let daemon, expected, predictable =
    let daemon, samples = Option.get !d in
    let model =
      match Linmodel.load daemon.model with Ok m -> m | Error e -> failwith e
    in
    (* The offline answer for every kernel the client asks to predict. *)
    let expected = Hashtbl.create 256 in
    List.iter
      (fun (s : Dataset.sample) ->
        Hashtbl.replace expected s.name (Float.max 0.0 (Linmodel.predict model s)))
      samples;
    (daemon, expected, List.map (fun (s : Dataset.sample) -> s.name) samples)
  in
  (* The set-up heap is garbage from here on; compacting it keeps the
     client's major GC slices short while it measures. *)
  d := None;
  Dataset.cache_clear ();
  Gc.compact ();
  (* The client polls without sleeping (see [run_step]); at the lowest
     priority it yields the shared CPU to the daemon, which started at the
     normal one. *)
  ignore (Unix.nice 19);
  let predict = zipf predictable
  and other =
    zipf
      (List.map (fun (e : Tsvc.Registry.entry) -> e.kernel.Vir.Kernel.name)
         Tsvc.Registry.all)
  in
  let mismatches = ref 0 in
  let check r fields =
    match r.r_kind with
    | K_predict -> (
        match (J.mem_num "speedup" fields, Hashtbl.find_opt expected r.r_kernel) with
        | Some got, Some want ->
            let ok = Float.abs (got -. want) <= 1e-9 *. Float.max 1.0 (Float.abs want) in
            if not ok then incr mismatches;
            ok
        | _ ->
            incr mismatches;
            false)
    | K_lint | K_certify -> J.mem_str "kernel" fields = Some r.r_kernel
    | K_stats | K_reload -> true
  in
  let conns =
    Array.init 2 (fun _ ->
        match connect daemon.sock with
        | Some fd -> fd
        | None -> failwith "cannot connect to the serve daemon")
  in
  let results = ref [] in
  let run_one ?window label ~tag ~rate limit =
    let reqs = step_requests ~seed ~tag ~predict ~other ~rate limit in
    let i = List.length !results in
    let step_span = ref 0 in
    let t0, backlog, max_backlog, answered =
      span "vserve.step" ~key:label (fun () ->
          step_span := current ();
          run_step ?window ~conns ~daemon ~check reqs)
    in
    (* An open loop times a request from when it was due, a closed one
       from when it was sent. *)
    let start r = match window with None -> t0 +. r.r_due | Some _ -> r.r_sent in
    let lat =
      Array.to_list reqs
      |> List.filter (fun r -> not (Float.is_nan r.r_recv))
      |> List.map (fun r -> (r.r_recv -. start r) *. 1000.0)
    in
    let late =
      Array.to_list reqs
      |> List.map (fun r -> (r.r_sent -. (t0 +. r.r_due)) *. 1000.0)
    in
    let last_recv =
      Array.fold_left (fun m r -> if Float.is_nan r.r_recv then m else Float.max m r.r_recv) t0 reqs
    in
    let n = Array.length reqs in
    let p50, p99 = latency_figures lat in
    let busy = last_recv -. t0 in
    let rate_now = float_of_int answered /. Float.max 1e-9 busy in
    let pass =
      p99 < p99_limit_ms && answered = n
      &&
      match window with
      | None ->
          (* The backlog grows when answers fall behind arrivals. *)
          rate_now >= 0.9 *. float_of_int n /. Float.max 1e-9 reqs.(n - 1).r_due
      | Some _ -> true
    in
    if List.length lat >= 5000 then begin
      let a = Array.of_list lat in
      Printf.printf "# serve step %d windows (p50/p99 ms):" i;
      for w = 0 to (Array.length a / 1000) - 1 do
        let win = Array.to_list (Array.sub a (w * 1000) 1000) in
        Printf.printf " %.3f/%.3f" (percentile 0.5 win) (percentile 0.99 win)
      done;
      List.iter
        (fun k ->
          let l =
            List.filter_map
              (fun r ->
                if r.r_kind = k && not (Float.is_nan r.r_recv) then
                  Some ((r.r_recv -. start r) *. 1000.0)
                else None)
              (Array.to_list reqs)
          in
          Printf.printf ", %s p50 %.3f" (kind_name k) (percentile 0.5 l))
        [ K_predict; K_lint; K_certify ];
      print_newline ()
    end;
    Printf.printf
      "# serve step %d (%s): %s, %5d sent, %5d answered, achieved %7.1f req/s, p50 %.3f ms, p99 %.3f ms, backlog at end %d (max %d)%s -> %s\n"
      i label
      (match window with
      | None -> Printf.sprintf "offered %6.0f req/s" rate
      | Some w -> Printf.sprintf "closed loop, %d outstanding" w)
      n answered rate_now p50 p99 backlog max_backlog
      (match window with
      | None -> Printf.sprintf ", generator late p99 %.3f ms" (percentile 0.99 late)
      | Some _ -> "")
      (if pass then "ok" else "over");
    (* Round trips overlap, so they are recorded after the step, as
       children of it. *)
    if !tracing then
      Array.iter
        (fun r ->
          if not (Float.is_nan r.r_recv) then
            record ~parent:!step_span
              ~key:(kind_name r.r_kind ^ ":" ^ r.r_kernel)
              "vserve.rtt" r.r_sent r.r_recv)
        reqs;
    let st =
      { st_reqs = reqs; st_lat = lat; st_late = late; st_p50 = p50; st_p99 = p99;
        st_answered = answered; st_busy_s = busy; st_pass = pass;
        st_max_backlog = max_backlog }
    in
    results := st :: !results;
    st
  in
  let rss = ref 0.0 in
  (* A traced run plays only the nominal step, for its round trips. *)
  let nominal, max_rps =
    if !tracing then (run_one "nominal" ~tag:2 ~rate:nominal_rate (`Seconds seconds), 0.0)
    else begin
      ignore
        (run_one "warm-up" ~tag:1 ~rate:(nominal_rate /. 2.0) (`Seconds (0.07 *. seconds)));
      (* The nominal and saturation steps alternate in [serve_rounds] rounds, so
         both figures sample the whole run.  The host's speed switches
         between states lasting seconds to a minute; a figure taken from
         one stretch of the run reads whichever state held then.  Each
         figure pools all its rounds.  Nominal traffic fills half the
         run. *)
      let steps =
        List.init serve_rounds (fun k ->
            let nom =
              run_one "nominal" ~tag:(2 + k) ~rate:nominal_rate
                (`Seconds (0.5 *. seconds /. float_of_int serve_rounds))
            in
            let sat =
              run_one ~window:saturation_window "saturation" ~tag:(100 + k)
                ~rate:nominal_rate
                (`Requests (saturation_requests / serve_rounds))
            in
            (nom, sat))
      in
      let nominal = pool_steps (List.map fst steps)
      and sat = pool_steps (List.map snd steps) in
      Printf.printf
        "# serve nominal, %d rounds pooled: p50 %.3f ms, p99 %.3f ms\n"
        serve_rounds nominal.st_p50 nominal.st_p99;
      Printf.printf
        "# serve saturation, %d rounds pooled: p50 %.3f ms, p99 %.3f ms\n"
        serve_rounds sat.st_p50 sat.st_p99;
      (* Peak RSS while serving within capacity: the closed loop bounds
         the daemon's backlog. *)
      rss := vm_hwm_mb (Some daemon.pid);
      if sat.st_pass then begin
        Printf.printf "# serve capacity: %.1f req/s\n" (achieved sat);
        (nominal, achieved sat)
      end
      else begin
        Printf.printf "# serve capacity: the saturation step missed the p99 limit\n";
        (nominal, achieved nominal)
      end
    end
  in
  let stats_line = call daemon.sock (request_line "final-stats" Vserve.Proto.Stats) in
  let stat name =
    match Option.map J.parse stats_line with
    | Some (Ok v) -> (
        match J.member "stats" v with
        | Some s -> Option.value ~default:0 (J.mem_int name s)
        | None -> Option.value ~default:0 (J.mem_int name v))
    | _ -> 0
  in
  Array.iter Unix.close conns;
  stop_daemon daemon;
  let all_reqs = List.concat_map (fun st -> Array.to_list st.st_reqs) (List.rev !results) in
  let sent = List.length all_reqs in
  let answered_ok = List.length (List.filter (fun r -> r.r_ok) all_reqs) in
  let lost = List.length (List.filter (fun r -> Float.is_nan r.r_recv) all_reqs) in
  let rejected =
    stat "rejected_overload" + stat "rejected_rate" + stat "rejected_bad"
    + stat "deadline_errors"
  in
  let degraded = stat "degraded_baseline" + stat "degraded_lint_skipped" + stat "partials" in
  Printf.printf
    "# serve: %d sent, %d answered ok, %d lost, %d mismatched predictions, daemon received %d answered %d rejected %d\n"
    sent answered_ok lost !mismatches (stat "received") (stat "answered") rejected;
  let layers =
    if not !tracing then []
    else begin
      (* Replay the nominal step's requests through an in-process engine
         with the daemon's configuration, timing each stage the daemon
         runs.  The replay runs once to warm up, once untraced and once
         traced: the last two give the tracing overhead. *)
      let cfg =
        { Vserve.Engine.default_config with
          model_path = Some daemon.model; queue_limit = 1000000; rate = 0.0 }
      in
      let replay () =
        let engine = Vserve.Engine.create cfg in
        let t0 = now () in
        List.iter
          (fun r ->
            let key = kind_name r.r_kind ^ ":" ^ r.r_kernel in
            let line = request_line (string_of_int r.r_id) (op_of daemon r) in
            match span "vserve.parse" ~key (fun () -> Vserve.Proto.request_of_line line) with
            | Error _ -> ()
            | Ok rq ->
                let resp, _ = span "vserve.handle" ~key (fun () -> Vserve.Engine.handle engine rq) in
                ignore (span "vserve.encode" ~key (fun () -> Vserve.Proto.response_to_line resp)))
          all_reqs;
        now () -. t0
      in
      tracing := false;
      ignore (replay ());
      let untraced_s = replay () in
      tracing := true;
      let traced_s = replay () in
      List.iter
        (fun r ->
          let key = kind_name r.r_kind ^ ":" ^ r.r_kernel in
          match Tsvc.Registry.find r.r_kernel with
          | None -> ()
          | Some e -> (
              let k = e.kernel in
              let vf = Vmachine.Descr.vf_for_kernel serve_machine k in
              match r.r_kind with
              | K_predict ->
                  ignore (span "costmodel.feature.cert" ~key (fun () -> Feature.cert ~n:serve_n ~vf k));
                  ignore (span "vanalysis.lint" ~key (fun () -> Vanalysis.Driver.lint_kernel ~vfs:[ vf ] k))
              | K_lint -> ignore (span "vanalysis.lint" ~key (fun () -> Vanalysis.Driver.lint_kernel k))
              | K_certify -> ignore (span "vanalysis.cert" ~key (fun () -> Vanalysis.Cert.certify ~vf k))
              | K_stats | K_reload -> ()))
        all_reqs;
      let service_ms =
        1000.0
        *. (span_total "vserve.parse" +. span_total "vserve.handle" +. span_total "vserve.encode")
        /. float_of_int (max 1 sent)
      in
      [ ("vserve.parse_s", span_total "vserve.parse");
        ("vserve.handle_s", span_total "vserve.handle");
        ("vserve.encode_s", span_total "vserve.encode");
        ("vserve.rtt_s", span_total "vserve.rtt");
        ("vserve.queue_wait_ms", Float.max 0.0 (percentile 0.5 nominal.st_lat -. service_ms));
        ("costmodel.feature.cert_s", span_total "costmodel.feature.cert");
        ("vanalysis.lint_s", span_total "vanalysis.lint");
        ("vanalysis.cert_s", span_total "vanalysis.cert");
        ("costmodel.dataset.build_s", span_total "costmodel.dataset.build");
        ("costmodel.fit_s", span_total "costmodel.fit");
        ("trace.overhead_ratio", (traced_s -. untraced_s) /. untraced_s) ]
    end
  in
  let layers =
    layers
    @ [ ("vserve.gen_late_ms", percentile 0.99 nominal.st_late);
        ("vserve.max_queue", float_of_int nominal.st_max_backlog);
        ("vserve.degraded", float_of_int degraded);
        ("vserve.rejected", float_of_int rejected) ]
    @ pool_fields ()
  in
  emit
    [ ("setup_s", J.Num (percentile 0.5 !setups));
      ("p50_ms", J.Num nominal.st_p50);
      ("p99_ms", J.Num nominal.st_p99);
      ("max_rps", J.Num max_rps);
      ("rss_mb", J.Num !rss);
      ("attempted", J.Num (float_of_int sent));
      ("failed", J.Num (float_of_int (sent - answered_ok + rejected)));
      ("layers", nums layers);
      ("fingerprint", fingerprint ~seed) ]

(* --- command line ------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: tl -> opt name tl
    | [] -> None
  in
  let seed = Option.fold ~none:1 ~some:int_of_string (opt "--seed" args) in
  let seconds = Option.fold ~none:10.0 ~some:float_of_string (opt "--seconds" args) in
  let trace_out = opt "--trace-out" args in
  tracing := trace_out <> None;
  (* A daemon that dies mid-run must show up as lost requests, not kill
     the client with SIGPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (match args with
  | "setup" :: _ -> emit [ ("entries", J.Num (float_of_int (setup ()))) ]
  | "report" :: _ ->
      ignore (setup ());
      let reference =
        match opt "--reference" args with Some p -> read_reference p | None -> []
      in
      report_pass ~seed ~reference ~print_digests:(List.mem "--print-digests" args)
  | "build" :: _ ->
      ignore (setup ());
      build_workload ~seed ~seconds
  | "serve" :: _ ->
      let vecmodel =
        match opt "--vecmodel" args with Some p -> p | None -> failwith "--vecmodel PATH required"
      in
      serve_workload ~vecmodel ~seed ~seconds
  | _ ->
      prerr_endline
        "usage: bench.exe (setup | report | build | serve) [--seed N] [--seconds S] [--trace-out FILE] ...";
      exit 2);
  match trace_out with Some p -> write_chrome_trace p | None -> ()
