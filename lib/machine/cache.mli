(** Set-associative LRU caches and a simple hierarchy, for trace-driven
    validation of the analytic memory model. *)

type config = { size_bytes : int; ways : int; line_bytes : int }

type t

(** @raise Invalid_argument when the geometry is inconsistent. *)
val create : config -> t

(** Touch one byte address; true on hit.  Misses install the line (LRU). *)
val access : t -> int -> bool

(** Whether the line holding a byte address is resident.  A probe: no
    counter, stamp or line changes.  Decodes the address exactly as
    {!access} does. *)
val resident : t -> int -> bool

(** [skip_hits t r] accounts [r] accesses that all hit lines already
    resident: the clock and the access counter advance by [r]; no LRU stamp
    changes.  Only sound where restamping those lines would leave their LRU
    order, relative to each other and to every other line of their sets,
    as it is — {!Tracesim} uses it for runs of iterations that touch the
    same resident lines in the same order. *)
val skip_hits : t -> int -> unit

val accesses : t -> int
val misses : t -> int
val hits : t -> int
val miss_rate : t -> float
val reset_stats : t -> unit

type hierarchy = { levels : t list }

val hierarchy : config list -> hierarchy

(** Index of the level that hit (= number of levels on a full miss). *)
val hierarchy_access : hierarchy -> int -> int

(** Per-level (accesses, misses). *)
val level_stats : hierarchy -> (int * int) list
