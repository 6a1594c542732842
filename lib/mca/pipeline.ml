open Dt_x86

(* Static, parameter-independent description of one block instruction:
   its opcode index and its register dependencies expressed as
   (producer offset in instructions, consumer source slot).  A producer
   offset is relative to the dynamic instruction stream: [k] means "the
   instruction [k] positions earlier", which captures both intra-iteration
   and loop-carried dependencies uniformly when the block is unrolled. *)
type static_instr = {
  opcode : int;
  deps : (int * int) array; (* (distance back in the stream, source slot) *)
  idiom : bool; (* dependency-breaking zero idiom with the flag enabled *)
}

(* ReadAdvanceCycles source slots are semantic: slot 0 covers register
   data sources, slot 1 address registers of a memory operand, slot 2 the
   flags — mirroring LLVM's per-operand-class ReadAdvance entries
   (e.g. ReadAfterLd accelerates only the data sources of load-op
   forms). *)
let source_slot instr r =
  let addr =
    match Instruction.mem_operand instr with
    | Some m -> Operand.mem_uses m
    | None -> []
  in
  if Reg.equal r Reg.Flags then 2
  else if List.exists (Reg.equal r) addr then 1
  else 0

(* Dependency analysis over two unrolled copies of the block: the second
   copy sees the steady-state producers (including loop-carried ones).
   [idiom_enabled] marks opcodes whose zero-idiom instances break
   dependencies (the learnable boolean extension). *)
let analyze ?idiom_enabled (block : Block.t) =
  let len = Array.length block.instrs in
  let last_writer = Array.make Reg.count (-1) in
  let result = Array.make len { opcode = 0; deps = [||]; idiom = false } in
  let is_idiom (instr : Instruction.t) =
    match idiom_enabled with
    | Some flags ->
        flags.(instr.opcode.index) && Instruction.is_zero_idiom instr
    | None -> false
  in
  for copy = 0 to 1 do
    Array.iteri
      (fun i instr ->
        let pos = (copy * len) + i in
        let idiom = is_idiom instr in
        let reads = if idiom then [] else Instruction.reads instr in
        let deps =
          List.map
            (fun r ->
              let w = last_writer.(Reg.index r) in
              if w >= 0 then Some (pos - w, source_slot instr r) else None)
            reads
          |> List.filter_map Fun.id
        in
        if copy = 1 then
          result.(i) <-
            {
              opcode = instr.Instruction.opcode.index;
              deps = Array.of_list deps;
              idiom;
            };
        List.iter
          (fun r -> last_writer.(Reg.index r) <- pos)
          (Instruction.writes instr))
      block.instrs
  done;
  result

(* Per-dynamic-instruction pipeline event times, for the timeline view. *)
type events = {
  dispatch_at : int array;
  issue_at : int array;
  ready_at : int array;
  retire_at : int array;
}

exception Budget_exceeded of { budget : int; retired : int; total : int }

(* Everything the cycle loop reads from the table, resolved once per
   block position.  An eliminated zero idiom is an instruction with no
   ports and a zero result latency. *)
type position = {
  uops : int; (* NumMicroOps *)
  slots : int; (* reorder-buffer slots: NumMicroOps clamped to the buffer *)
  dep_dist : int array; (* distance back to each source's producer *)
  dep_lat : int array; (* max 0 (producer WriteLatency - ReadAdvance) *)
  ports : int array; (* ports with a nonzero PortMap entry *)
  port_cycles : int array; (* their PortMap entries *)
  result_latency : int; (* max WriteLatency (max PortMap) *)
}

let positions (p : Params.t) (block : Block.t) =
  let static = analyze ~idiom_enabled:p.zero_idiom_enabled block in
  let len = Array.length static in
  Array.mapi
    (fun i st ->
      let pm = p.port_map.(st.opcode) in
      let ports =
        if st.idiom then [||]
        else
          Array.of_list
            (List.filter
               (fun q -> pm.(q) > 0)
               (List.init Params.num_ports Fun.id))
      in
      {
        uops = p.num_micro_ops.(st.opcode);
        slots = min p.num_micro_ops.(st.opcode) p.reorder_buffer_size;
        dep_dist = Array.map fst st.deps;
        dep_lat =
          Array.map
            (fun (dist, slot) ->
              let producer = static.((((i - dist) mod len) + len) mod len) in
              max 0
                (p.write_latency.(producer.opcode)
                - p.read_advance.(st.opcode).(slot)))
            st.deps;
        ports;
        port_cycles = Array.map (fun q -> pm.(q)) ports;
        result_latency =
          (if st.idiom then 0
           else max p.write_latency.(st.opcode) (Array.fold_left max 0 pm));
      })
    static

(* Cycle at which every source of dynamic instruction [i] is ready, or
   [lnot producer] (negative) for a producer that has not issued. *)
let rec sources_ready issue_time i (ps : position) d acc =
  if d = Array.length ps.dep_dist then acc
  else
    let producer = i - ps.dep_dist.(d) in
    if producer < 0 then sources_ready issue_time i ps (d + 1) acc
    else
      let t = issue_time.(producer) in
      if t = max_int then lnot producer
      else
        sources_ready issue_time i ps (d + 1) (Int.max acc (t + ps.dep_lat.(d)))

(* Cycle at which every port of [ps] is free. *)
let rec ports_free port_busy (ps : position) d acc =
  if d = Array.length ps.ports then acc
  else ports_free port_busy ps (d + 1) (Int.max acc port_busy.(ps.ports.(d)))

(* The cycle loop.  Each pass simulates one cycle: retire, dispatch,
   then issue over the dispatched-but-unissued instructions, oldest
   first.  Each waiting instruction keeps a gate from its last check: a
   producer that had not issued, or a cycle before which its sources or
   ports cannot be ready.  A check whose gate still holds costs one
   comparison.  A pass in which nothing retires, dispatches or issues
   jumps ahead to the earliest cycle at which something could: the
   retire head's result is ready, or a cycle gate opens (an instruction
   gated on a producer waits for that producer to issue).  Dispatch can
   only be waiting for retirement to free reorder-buffer slots.  Every
   one of these conditions is monotone in time while nothing else
   happens, so the gates stay sound and every skipped cycle is one that
   would change nothing.

   [budget] is the serving-side watchdog: a cap on simulated cycles.  A
   learned table with pathological latencies or port reservations makes
   the simulation arbitrarily long, so a caller that must answer within
   a deadline bounds it and receives a structured {!Budget_exceeded}
   carrying how far retirement got.  A jump stops at [budget], so the
   exception fires at the same cycle, with the same [retired] count, as
   a loop that visits every cycle.  [max_int] (the default) means
   unbounded. *)
let run ?events ?(budget = max_int) (p : Params.t) ~iterations
    (block : Block.t) =
  let len = Array.length block.instrs in
  let pos = positions p block in
  let n = iterations * len in
  (* Per dynamic instruction state. *)
  let issue_time = Array.make n max_int in
  let ready_time = Array.make n max_int in
  let port_busy = Array.make Params.num_ports 0 in
  (* Dispatched-but-unissued instructions, oldest first: appended at
     dispatch, compacted as they issue, each with its block position and
     its gate ([lnot producer], or a cycle; 0 before the first check).
     Each holds at least one reorder-buffer slot, so the buffer size
     bounds their number. *)
  let cap = min n p.reorder_buffer_size in
  let waiting = Array.make cap 0 in
  let waiting_pos = Array.make cap 0 in
  let gate = Array.make cap 0 in
  let n_waiting = ref 0 in
  let rob_free = ref p.reorder_buffer_size in
  let dispatch_head = ref 0 in
  (* Micro-ops of the head instruction still to be dispatched this and
     following cycles. *)
  let head_uops_left = ref 0 in
  let retire_head = ref 0 in
  let cycle = ref 0 in
  while !retire_head < n do
    if !cycle >= budget then
      raise (Budget_exceeded { budget; retired = !retire_head; total = n });
    let now = !cycle in
    let acted = ref false in
    (* ---- Retire: in order, executed instructions, DispatchWidth
       micro-ops per cycle (llvm-mca's retire-control-unit default). ---- *)
    let retire_budget = ref p.dispatch_width in
    let blocked = ref false in
    while (not !blocked) && !retire_head < n && !retire_budget > 0 do
      let i = !retire_head in
      let u = pos.(i mod len).slots in
      (* An instruction wider than the whole budget retires alone,
         consuming the full cycle (multi-cycle retirement approximation). *)
      let fits = u <= !retire_budget || !retire_budget = p.dispatch_width in
      if ready_time.(i) <= now && fits then begin
        retire_budget := Int.max 0 (!retire_budget - u);
        rob_free := !rob_free + u;
        (match events with
        | Some e -> e.retire_at.(i) <- now
        | None -> ());
        acted := true;
        incr retire_head
      end
      else blocked := true
    done;
    (* ---- Dispatch: DispatchWidth micro-ops per cycle; an instruction
       needs NumMicroOps reorder-buffer slots (clamped so oversized
       instructions cannot deadlock a small buffer). ---- *)
    let dispatch_budget = ref p.dispatch_width in
    let stalled = ref false in
    while (not !stalled) && !dispatch_head < n && !dispatch_budget > 0 do
      let i = !dispatch_head in
      let ps = pos.(i mod len) in
      if !head_uops_left = 0 then begin
        if ps.slots <= !rob_free then begin
          rob_free := !rob_free - ps.slots;
          head_uops_left := ps.uops
        end
        else stalled := true
      end;
      if not !stalled then begin
        let take = Int.min !head_uops_left !dispatch_budget in
        head_uops_left := !head_uops_left - take;
        dispatch_budget := !dispatch_budget - take;
        acted := true;
        if !head_uops_left = 0 then begin
          (match events with
          | Some e -> e.dispatch_at.(i) <- now
          | None -> ());
          waiting.(!n_waiting) <- i;
          waiting_pos.(!n_waiting) <- i mod len;
          gate.(!n_waiting) <- 0;
          incr n_waiting;
          incr dispatch_head
        end
      end
    done;
    (* ---- Issue: scan the waiting instructions oldest first; an
       instruction issues when every source is ready and every port in
       its PortMap is free, reserving those ports.  [wake] collects the
       earliest cycle at which a still-waiting instruction could issue,
       which holds if this cycle changes nothing. ---- *)
    let wake = ref max_int in
    let kept = ref 0 in
    for k = 0 to !n_waiting - 1 do
      let i = waiting.(k) and ps = pos.(waiting_pos.(k)) in
      let g = gate.(k) in
      let at =
        if (g < 0 && issue_time.(lnot g) = max_int) || g > now then g
        else
          let ready = sources_ready issue_time i ps 0 0 in
          if ready < 0 then ready else ports_free port_busy ps 0 ready
      in
      if 0 <= at && at <= now then begin
        for d = 0 to Array.length ps.ports - 1 do
          port_busy.(ps.ports.(d)) <- now + ps.port_cycles.(d)
        done;
        let done_at = now + ps.result_latency in
        issue_time.(i) <- now;
        ready_time.(i) <- done_at;
        (match events with
        | Some e ->
            e.issue_at.(i) <- now;
            e.ready_at.(i) <- done_at
        | None -> ());
        acted := true
      end
      else begin
        waiting.(!kept) <- i;
        waiting_pos.(!kept) <- waiting_pos.(k);
        gate.(!kept) <- at;
        incr kept;
        if 0 <= at && at < !wake then wake := at
      end
    done;
    n_waiting := !kept;
    if !acted then incr cycle
    else cycle := Int.min budget (Int.min !wake ready_time.(!retire_head))
  done;
  !cycle

let timing_unchecked p ?(iterations = 100) ?cycle_budget block =
  if iterations <= 0 then
    invalid_arg "Mca.Pipeline.timing: iterations must be positive";
  (match cycle_budget with
  | Some b when b <= 0 ->
      invalid_arg "Mca.Pipeline.timing: cycle_budget must be positive"
  | _ -> ());
  float_of_int (run ?budget:cycle_budget p ~iterations block)
  /. float_of_int iterations

let trace p ?(iterations = 4) block =
  Params.validate p;
  if iterations <= 0 then
    invalid_arg "Mca.Pipeline.trace: iterations must be positive";
  let n = iterations * Dt_x86.Block.length block in
  let events =
    {
      dispatch_at = Array.make n (-1);
      issue_at = Array.make n (-1);
      ready_at = Array.make n (-1);
      retire_at = Array.make n (-1);
    }
  in
  let total = run ~events p ~iterations block in
  (events, total)

let timing p ?iterations ?cycle_budget block =
  Params.validate p;
  timing_unchecked p ?iterations ?cycle_budget block

let dependency_edges block = Array.map (fun s -> s.deps) (analyze block)

let zero_idiom_positions ?idiom_enabled block =
  Array.map (fun s -> s.idiom) (analyze ?idiom_enabled block)
