(** The llvm-mca clone: an out-of-order superscalar basic-block simulator
    parameterized by {!Params.t}.

    Faithful to the pipeline described in paper Section II-A:
    - {b dispatch} reserves [NumMicroOps] reorder-buffer slots per
      instruction, moving at most [DispatchWidth] micro-ops per cycle;
    - {b issue} blocks an instruction until its register sources are ready
      (producer issue time + [WriteLatency], accelerated per source slot
      by the consumer's [ReadAdvanceCycles]) and all ports with a nonzero
      [PortMap] entry are free;
    - {b execute} reserves each port [p] for [PortMap[p]] cycles;
    - {b retire} frees micro-ops in program order, [DispatchWidth] per
      cycle.

    Like llvm-mca, the model ignores the processor frontend, assumes all
    data is in L1, and (default alias analysis) tracks {e no} memory
    dependencies — loads never wait for stores, which is precisely the
    model deficiency behind the paper's ADD32mr case study. *)

(** Raised when a [?cycle_budget] watchdog trips: the simulation consumed
    [budget] cycles with only [retired] of [total] dynamic instructions
    retired.  The fields give the serving layer enough structure to label
    a deadline response without string matching. *)
exception Budget_exceeded of { budget : int; retired : int; total : int }

(** [timing params ?iterations ?cycle_budget block] — predicted cycles
    per iteration of the block, simulating [iterations] (default 100)
    back-to-back copies, llvm-mca's definition of a block's timing.

    [?cycle_budget] caps the number of {e simulated} cycles: a
    pathological parameter table — e.g. a learned million-cycle port
    reservation — cannot wedge the caller.  Each pass of the simulation
    loop advances at least one simulated cycle (cycles in which nothing
    can happen are jumped over), so the cap still bounds the wall-clock
    work, though loosely.  When the cap is reached {!Budget_exceeded} is
    raised, at the same cycle and with the same fields as a loop that
    visits every cycle.  Default is unbounded.

    Raises [Invalid_argument] if [params] fails {!Params.validate} or if
    [cycle_budget <= 0]. *)
val timing :
  Params.t -> ?iterations:int -> ?cycle_budget:int -> Dt_x86.Block.t -> float

(** [timing_unchecked] skips parameter validation (hot path for the
    optimizers, which construct tables through validated samplers). *)
val timing_unchecked :
  Params.t -> ?iterations:int -> ?cycle_budget:int -> Dt_x86.Block.t -> float

(** Per-dynamic-instruction pipeline event cycles (all arrays indexed by
    [iteration * block_length + position]; -1 = never happened). *)
type events = {
  dispatch_at : int array;
  issue_at : int array;
  ready_at : int array;   (** execution results available *)
  retire_at : int array;
}

(** [trace params ?iterations block] — simulate a few iterations (default
    4) recording every instruction's dispatch/issue/ready/retire cycles;
    returns the events and the total cycle count.  Drives the timeline
    view of {!Report}. *)
val trace : Params.t -> ?iterations:int -> Dt_x86.Block.t -> events * int

(** Steady-state register dependency structure of a block, as used by the
    issue stage: for each instruction position, the list of
    [(distance back in the dynamic instruction stream, source slot)]
    pairs.  Slot indices follow the ReadAdvanceCycles slot convention
    (0 = data, 1 = address, 2 = flags).  Exposed for the differentiable
    dependency-chain bound of the physics-informed surrogate. *)
val dependency_edges : Dt_x86.Block.t -> (int * int) array array

(** Which block positions are dependency-breaking zero idioms under a
    given per-opcode flag vector (all-false when omitted). *)
val zero_idiom_positions :
  ?idiom_enabled:bool array -> Dt_x86.Block.t -> bool array
