(* Trace-driven cache simulation: replay a kernel's exact element accesses
   through a cache hierarchy built from a machine's memory parameters.

   Kernels whose every access is affine need no execution at all: the
   lowered program's access descriptors give each access's address as a
   constant plus per-loop-depth coefficients, so the address stream is
   generated straight from the loop nest, and runs of iterations that
   provably hit L1 are accounted without being replayed.  Gather/scatter
   kernels, and any kernel the stream path cannot prove trap-free, run the
   closure-compiled body and touch its accesses after every iteration; a
   trap there hands the kernel to the reference interpreter's trace.  All
   paths feed the same accesses in the same order, so their statistics are
   identical.

   This validates the analytic [Memmodel]: the level it picks from the
   working-set size should match where the simulated hierarchy actually
   serves the traffic. *)

open Vir

(* Lay the kernel's arrays out contiguously (16-line gaps between arrays so
   they do not share boundary lines), and map (array, element) to a byte
   address.  The table maps an array name to its (base, element bytes). *)
type layout = (string, int * int) Hashtbl.t

let layout ~n ~line_bytes (k : Kernel.t) =
  let gap = 16 * line_bytes in
  let tbl = Hashtbl.create 8 in
  ignore
    (List.fold_left
       (fun next (d : Kernel.array_decl) ->
         let eb = Types.size_bytes d.arr_ty in
         Hashtbl.replace tbl d.arr_name (next, eb);
         next + (Kernel.extent_elems ~n d.arr_extent * eb) + gap)
       0 k.arrays);
  tbl

let placement l arr =
  match Hashtbl.find_opt l arr with
  | Some be -> be
  | None -> invalid_arg (Printf.sprintf "Tracesim.address: unknown array %s" arr)

let address l ~arr ~idx =
  let base, eb = placement l arr in
  base + (idx * eb)

type stats = {
  total_accesses : int;
  per_level : (Memmodel.level * int * int) list;
      (* level, accesses reaching it, misses at it *)
  dram_accesses : int;
  bytes_moved_per_elem : float;
      (* line_bytes * (misses at the last cache level) / iterations *)
}

(* Build the hierarchy configs from a machine's memory description. *)
let hierarchy_of (mem : Descr.mem) =
  let l1 = { Cache.size_bytes = mem.l1_bytes; ways = 4; line_bytes = mem.line_bytes } in
  let l2 = { Cache.size_bytes = mem.l2_bytes; ways = 8; line_bytes = mem.line_bytes } in
  if mem.l3_bytes > 0 then
    [ l1; l2;
      { Cache.size_bytes = mem.l3_bytes; ways = 16; line_bytes = mem.line_bytes } ]
  else [ l1; l2 ]

(* A hierarchy being driven, with the access and memory-access counters of
   the current pass. *)
type sim = {
  h : Cache.hierarchy;
  nlevels : int;
  mutable total : int;
  mutable dram : int;
}

let new_sim (mem : Descr.mem) =
  let h = Cache.hierarchy (hierarchy_of mem) in
  { h; nlevels = List.length h.Cache.levels; total = 0; dram = 0 }

let touch s addr =
  s.total <- s.total + 1;
  if Cache.hierarchy_access s.h addr >= s.nlevels then s.dram <- s.dram + 1

(* Run [pass] twice: a first untimed pass warms the caches (measurements in
   the paper are steady-state over many repetitions); the second counts. *)
let run_passes (mem : Descr.mem) ~n (k : Kernel.t) s pass =
  pass ();
  List.iter Cache.reset_stats s.h.Cache.levels;
  s.total <- 0;
  s.dram <- 0;
  pass ();
  let iters = float_of_int (max 1 (Kernel.total_iterations ~n k)) in
  let levels = Cache.level_stats s.h in
  let per_level =
    List.mapi
      (fun i (accs, misses) ->
        let lvl =
          match i with
          | 0 -> Memmodel.L1
          | 1 -> Memmodel.L2
          | 2 -> Memmodel.L3
          | _ -> Memmodel.Dram
        in
        (lvl, accs, misses))
      levels
  in
  let last_level_misses =
    match List.rev levels with (_, misses) :: _ -> misses | [] -> 0
  in
  {
    total_accesses = s.total;
    per_level;
    dram_accesses = s.dram;
    bytes_moved_per_elem =
      float_of_int (last_level_misses * mem.line_bytes) /. iters;
  }

(* The reference: run the scalar interpreter with every access it makes fed
   through the hierarchy.  An out-of-range access is simulated, then raises
   [Env.Out_of_bounds] from the interpreter. *)
let simulate_traced ?(seed = 42) (mem : Descr.mem) ~n (k : Kernel.t) =
  let env = Vinterp.Env.create ~seed ~n k in
  let l = layout ~n ~line_bytes:mem.line_bytes k in
  let s = new_sim mem in
  Vinterp.Env.set_trace env (fun arr idx _write -> touch s (address l ~arr ~idx));
  let st =
    run_passes mem ~n k s (fun () -> ignore (Vinterp.Interp.run_in env k))
  in
  Vinterp.Env.clear_trace env;
  st

(* The affine address stream of a kernel, in byte units: each access's
   address at the first iteration, its increment per iteration of each
   loop, and each loop's trip count.  Accesses are in body order. *)
type stream = {
  start : int array;  (* per access *)
  incs : int array array;  (* per loop depth, per access *)
  trips : int array;  (* per loop depth *)
}

(* Where [simulate] takes a kernel's accesses from. *)
type plan =
  | Stream of stream  (* generated from the loop nest; nothing executes *)
  | Compiled of Vexec.Program.t  (* the closure-compiled body runs *)
  | Interpreted  (* the reference interpreter's trace *)

(* A kernel streams when nothing can stop the interpreter partway through
   its trace: no integer division (its divisor may be zero), no indirect
   access or other trap site in the lowered program, and every affine
   access proven in range over the whole nest.  Otherwise it runs compiled,
   unless it does not lower or a loop never terminates: only the
   interpreter reproduces those. *)
let plan_of ?seed ~n ~line_bytes (k : Kernel.t) =
  let int_division = function
    | Instr.Bin { ty; op = Op.Div | Op.Rem; _ } -> not (Types.is_float ty)
    | _ -> false
  in
  let endless (l : Kernel.loop) = l.step <= 0 && l.start < Kernel.trip_bound ~n l.trip in
  if List.exists endless k.loops then Interpreted
  else
    match Vexec.Program.lower k with
    | exception Invalid_argument _ -> Interpreted
    | prog
      when List.exists int_division k.body
           || Array.length prog.traps > 0
           || Array.exists (fun (a : Vexec.Program.access) -> a.acc_ind >= 0) prog.accesses
      ->
        Compiled prog
    | prog ->
        (* The bind-time access constants and array lengths the closure tier
           uses, from an environment that aliases the shared initial buffers
           (nothing is copied, nothing is written). *)
        let st = Vexec.Flat.create prog in
        Vexec.Flat.bind st (Vinterp.Env.create ?seed ~readonly:(fun _ -> true) ~n k);
        if not (Vexec.Closure.affine_safe st) then Compiled prog
        else begin
          let l = layout ~n ~line_bytes k in
          let trips =
            Array.mapi
              (fun d (lp : Vexec.Program.loopdesc) ->
                let span = st.bounds.(d) - lp.l_start in
                if span <= 0 then 0 else (span + lp.l_step - 1) / lp.l_step)
              prog.loops
          in
          let incs = Array.map (fun _ -> Array.make (Array.length prog.accesses) 0) prog.loops in
          let start =
            Array.mapi
              (fun a (acc : Vexec.Program.access) ->
                let base, eb = placement l acc.acc_name in
                let addr = ref (base + (eb * st.acc_const.(a))) in
                Array.iteri
                  (fun j c ->
                    let d = st.acc_depth.(a).(j) in
                    incs.(d).(a) <- eb * c * prog.loops.(d).l_step;
                    addr := !addr + (eb * c * prog.loops.(d).l_start))
                  st.acc_coeff.(a);
                !addr)
              prog.accesses
          in
          Stream { start; incs; trips }
        end

(* Walk the nest and touch every access in body order at every innermost
   iteration: addresses advance by their per-loop increment and rewind when
   a loop completes.

   Line runs.  Take an innermost iteration after which every access's line
   is resident in L1, and let r be the number of further iterations in
   which every access stays on its current line (capped by the trips
   left).  Those r iterations touch the same resident lines in the same
   order, so each access hits L1: nothing is evicted, no lower level is
   reached, the touched lines keep their LRU order among themselves (the
   order of their last touch in the body) and every other line of their
   sets stays older.  Restamping them would change no later eviction, so
   the run is accounted as r * k L1 hits ([Cache.skip_hits]) and skipped.
   [left.(a)] counts access [a]'s further iterations on its line; it is
   decremented, and recomputed only when the access moves to a new line.
   The residency probe is what makes this sound: an access may evict the
   line of an earlier one in the same iteration, and then every iteration
   misses again. *)
let replay s ~line_bytes { start; incs; trips } =
  let nacc = Array.length start in
  let nloops = Array.length trips in
  let pos = Array.copy start in
  let touch_all () =
    for a = 0 to nacc - 1 do
      touch s (Array.unsafe_get pos a)
    done
  in
  let advance inc by =
    for a = 0 to nacc - 1 do
      pos.(a) <- pos.(a) + (by * inc.(a))
    done
  in
  let l1 = List.hd s.h.Cache.levels in
  let inner = if nloops = 0 then [||] else incs.(nloops - 1) in
  (* An access that moves a whole line per iteration never runs. *)
  let runs = nacc > 0 && Array.for_all (fun inc -> abs inc < line_bytes) inner in
  let left = Array.make nacc 0 in
  let line_run a =
    let inc = inner.(a) and p = pos.(a) in
    if inc = 0 then max_int
    else if p < 0 then 0
    else
      let o = p mod line_bytes in
      if inc > 0 then (line_bytes - 1 - o) / inc else o / -inc
  in
  let all_resident () =
    let ok = ref true and a = ref 0 in
    while !ok && !a < nacc do
      ok := Cache.resident l1 pos.(!a);
      incr a
    done;
    !ok
  in
  let innermost t =
    if not runs then
      for _ = 1 to t do
        touch_all ();
        advance inner 1
      done
    else begin
      for a = 0 to nacc - 1 do
        left.(a) <- line_run a
      done;
      let j = ref 0 in
      while !j < t do
        touch_all ();
        let r = ref (t - 1 - !j) in
        for a = 0 to nacc - 1 do
          if left.(a) < !r then r := left.(a)
        done;
        let r = if !r > 0 && all_resident () then !r else 0 in
        if r > 0 then begin
          Cache.skip_hits l1 (r * nacc);
          s.total <- s.total + (r * nacc)
        end;
        let step = r + 1 in
        for a = 0 to nacc - 1 do
          pos.(a) <- pos.(a) + (step * inner.(a));
          let l = left.(a) - step in
          left.(a) <- (if l >= 0 then l else line_run a)
        done;
        j := !j + step
      done
    end;
    advance inner (-t)
  in
  let rec walk d =
    if d = nloops - 1 then innermost trips.(d)
    else begin
      let inc = incs.(d) and t = trips.(d) in
      for _ = 1 to t do
        walk (d + 1);
        advance inc 1
      done;
      advance inc (-t)
    end
  in
  if nloops = 0 then touch_all () else walk 0

(* Run the closure-compiled body at every innermost iteration and touch its
   accesses after it, in body order: an indirect index is read from the
   register the body just computed, an affine one from the loop variables.
   The body is the checked or unchecked variant exactly as
   [Closure.run_bound] would pick it, and both passes run on one writable
   environment, as the interpreter's do.  Traps escape to [simulate]. *)
let simulate_compiled ?seed (mem : Descr.mem) ~n (k : Kernel.t) (prog : Vexec.Program.t) =
  let st = Vexec.Flat.create prog in
  Vexec.Flat.bind st (Vinterp.Env.create ?seed ~n k);
  let body = Vexec.Closure.compile_body ~check:(not (Vexec.Closure.affine_safe st)) st in
  let l = layout ~n ~line_bytes:mem.line_bytes k in
  let s = new_sim mem in
  let iregs = st.iregs and ivs = st.ivs and cst = st.acc_const in
  let touches =
    Array.mapi
      (fun a (acc : Vexec.Program.access) ->
        let base, eb = placement l acc.acc_name in
        if acc.acc_ind >= 0 then
          let r = acc.acc_ind in
          fun () -> touch s (base + (eb * Array.unsafe_get iregs r))
        else
          let coeff = st.acc_coeff.(a) and depth = st.acc_depth.(a) in
          fun () ->
            let idx = ref (Array.unsafe_get cst a) in
            for j = 0 to Array.length coeff - 1 do
              idx := !idx + (coeff.(j) * Array.unsafe_get ivs depth.(j))
            done;
            touch s (base + (eb * !idx)))
      prog.accesses
  in
  let iteration () =
    body ();
    for a = 0 to Array.length touches - 1 do
      (Array.unsafe_get touches a) ()
    done
  in
  run_passes mem ~n k s (Vexec.Closure.nest st iteration)

let path ?seed (mem : Descr.mem) ~n k =
  match plan_of ?seed ~n ~line_bytes:mem.line_bytes k with
  | Stream _ -> `Stream
  | Compiled _ -> `Compiled
  | Interpreted -> `Interpreted

(* A trap in the compiled body stops at the same access as the
   interpreter would, but the accesses simulated so far are discarded and
   the reference reruns: it simulates them, then raises. *)
let simulate ?seed (mem : Descr.mem) ~n (k : Kernel.t) =
  match plan_of ?seed ~n ~line_bytes:mem.line_bytes k with
  | Stream stream ->
      let s = new_sim mem in
      run_passes mem ~n k s (fun () -> replay s ~line_bytes:mem.line_bytes stream)
  | Compiled prog -> (
      try simulate_compiled ?seed mem ~n k prog
      with Vinterp.Env.Out_of_bounds _ | Invalid_argument _ | Division_by_zero ->
        simulate_traced ?seed mem ~n k)
  | Interpreted -> simulate_traced ?seed mem ~n k

(* The level the stream actually lives in: one past the deepest level with a
   non-trivial steady-state miss rate.  The 2% threshold sits below the 6.25%
   compulsory rate of a unit-stride f32 stream (one line miss per 16
   elements) and above warm-cache noise. *)
let dominant_level (s : stats) =
  let rec go acc = function
    | [] -> acc
    | (lvl, accs, misses) :: rest ->
        if accs > 0 && float_of_int misses /. float_of_int accs > 0.02 then
          go
            (match rest with
            | [] -> Memmodel.Dram
            | _ -> (match lvl with
                    | Memmodel.L1 -> Memmodel.L2
                    | Memmodel.L2 -> Memmodel.L3
                    | Memmodel.L3 | Memmodel.Dram -> Memmodel.Dram))
            rest
        else acc
  in
  go Memmodel.L1 s.per_level

(* Agreement between the analytic level choice and the simulated dominant
   level, within one level of slack (the analytic model has no L3 on cores
   without one, and footprint boundaries are soft). *)
let level_rank = function
  | Memmodel.L1 -> 0
  | Memmodel.L2 -> 1
  | Memmodel.L3 -> 2
  | Memmodel.Dram -> 3

let agrees ~analytic ~simulated =
  abs (level_rank analytic - level_rank simulated) <= 1
