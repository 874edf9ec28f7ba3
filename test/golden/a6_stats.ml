(* Print every registry kernel's trace-driven cache statistics at the
   default A6 size (n = 32000, neon-a57 memory hierarchy), one line per
   kernel.  The runtest rule in this directory diffs the output against
   [a6_stats.expected], so any change to the address stream, the cache
   simulator or the stats arithmetic shows up as a byte diff. *)

module T = Vmachine.Tracesim

let () =
  let mem = Vmachine.Machines.neon_a57.Vmachine.Descr.mem in
  let n = 32000 in
  List.iter
    (fun (e : Tsvc.Registry.entry) ->
      let s = T.simulate mem ~n e.kernel in
      Printf.printf "%s total %d" e.kernel.Vir.Kernel.name s.T.total_accesses;
      List.iter
        (fun (lvl, accs, misses) ->
          Printf.printf " %s %d/%d" (Vmachine.Memmodel.level_to_string lvl) accs
            misses)
        s.T.per_level;
      Printf.printf " dram %d bytes/elem %.17g\n" s.T.dram_accesses
        s.T.bytes_moved_per_elem)
    Tsvc.Registry.all
