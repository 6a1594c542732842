(** The reference out-of-order machine: ground truth for all experiments.

    This simulator plays the role of the physical CPUs measured by BHive.
    It is deliberately *more detailed* than the llvm-mca clone whose
    parameters DiffTune learns: it models a decode frontend, zero-idiom
    and move elimination at rename, a stack engine, per-destination result
    latencies, unpipelined execution units, and memory dependence chains
    with store-to-load forwarding.  None of these have a direct llvm-mca
    parameter, which recreates the paper's simulator/machine mismatch.

    Every label in the repository is one call of {!timing}, so the
    machine is built to be cheap and exact to the cycle.  Each call
    decodes each instruction of the block once: its micro-ops, the
    registers it reads and writes, and its memory address, interned as a
    small int.  It then unrolls the iterations into a micro-op trace
    through an int-array binding table, with flat dependence arrays.  A
    chain of eliminated moves can still bind a register to a producer
    two or more iterations back, and a load whose forwarding store comes
    later in the block reads L1 in the first iteration only; the trace
    keeps both.  The cycle loop scans only waiting micro-ops, oldest
    first.  Each waits behind a gate: the result of a producer that has
    not executed yet, or, once all have, the result that lands last (a
    ready time written exactly once).  A cycle in which nothing retires,
    dispatches or issues jumps straight to the next cycle at which the
    retire head's results land or a waiting micro-op's gate opens on a
    free port.

    [test/refcpu_oracle.ml] keeps the loop this replaced, which renamed
    every instruction of every iteration and visited every cycle.
    [test_refcpu] holds this machine to it cycle for cycle (four
    microarchitectures, 1, 2, 3 and 100 iterations), and pins the label
    bits of a 600-block corpus.  On a 2-vCPU VM, labelling a 600-block
    corpus fell from 0.45–0.63 s to 0.07–0.15 s. *)

(** [cycles_per_iteration cfg ~iterations block] runs [iterations] back-to-
    back copies of [block] (BHive unrolls blocks in a loop, default 100)
    and returns total cycles divided by [iterations]. *)
val cycles_per_iteration :
  Uarch.t -> ?iterations:int -> Dt_x86.Block.t -> float

(** [timing cfg block] is [cycles_per_iteration] with the BHive convention
    of 100 iterations — the paper's definition of a block's timing. *)
val timing : Uarch.t -> Dt_x86.Block.t -> float
