(* Test oracle for Dt_mca.Pipeline: the cycle-by-cycle simulation loop
   that walks every instruction from the oldest unissued one to the
   dispatch head on every simulated cycle.  The production loop scans
   only waiting instructions and jumps over idle cycles; test_mca.ml
   holds it to this one cycle for cycle (total cycles, Budget_exceeded
   fields, every trace event). *)

open Dt_mca

type static_instr = {
  opcode : int;
  deps : (int * int) array; (* (distance back in the stream, source slot) *)
  idiom : bool;
}

(* The issue stage's static view of a block, rebuilt from the public
   analysis: an eliminated zero idiom reads no sources. *)
let analyze ~idiom_enabled (block : Dt_x86.Block.t) =
  let edges = Pipeline.dependency_edges block in
  let idioms = Pipeline.zero_idiom_positions ~idiom_enabled block in
  Array.mapi
    (fun i (instr : Dt_x86.Instruction.t) ->
      {
        opcode = instr.opcode.index;
        deps = (if idioms.(i) then [||] else edges.(i));
        idiom = idioms.(i);
      })
    block.instrs

let run ?(events : Pipeline.events option) ?(budget = max_int) (p : Params.t)
    ~iterations (block : Dt_x86.Block.t) =
  let len = Array.length block.instrs in
  let static = analyze ~idiom_enabled:p.zero_idiom_enabled block in
  let n = iterations * len in
  (* Per dynamic instruction state. *)
  let issue_time = Array.make n max_int in
  let ready_time = Array.make n max_int in
  let dispatched = Array.make n false in
  let port_busy = Array.make Params.num_ports 0 in
  let rob_free = ref p.reorder_buffer_size in
  let dispatch_head = ref 0 in
  (* Micro-ops of the head instruction still to be dispatched this and
     following cycles. *)
  let head_uops_left = ref 0 in
  let retire_head = ref 0 in
  let oldest_waiting = ref 0 in
  let cycle = ref 0 in
  let uops i = p.num_micro_ops.(static.(i mod len).opcode) in
  while !retire_head < n do
    if !cycle >= budget then
      raise
        (Pipeline.Budget_exceeded { budget; retired = !retire_head; total = n });
    let now = !cycle in
    (* ---- Retire: in order, executed instructions, DispatchWidth
       micro-ops per cycle (llvm-mca's retire-control-unit default). ---- *)
    let retire_budget = ref p.dispatch_width in
    let blocked = ref false in
    while (not !blocked) && !retire_head < n && !retire_budget > 0 do
      let i = !retire_head in
      let u = min (uops i) p.reorder_buffer_size in
      (* An instruction wider than the whole budget retires alone,
         consuming the full cycle (multi-cycle retirement approximation). *)
      let fits = u <= !retire_budget || !retire_budget = p.dispatch_width in
      if dispatched.(i) && ready_time.(i) <= now && fits then begin
        retire_budget := max 0 (!retire_budget - u);
        rob_free := !rob_free + u;
        (match events with
        | Some e -> e.retire_at.(i) <- now
        | None -> ());
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
      if !head_uops_left = 0 then begin
        let need = min (uops i) p.reorder_buffer_size in
        if need <= !rob_free then begin
          rob_free := !rob_free - need;
          head_uops_left := uops i
        end
        else stalled := true
      end;
      if not !stalled then begin
        let take = min !head_uops_left !dispatch_budget in
        head_uops_left := !head_uops_left - take;
        dispatch_budget := !dispatch_budget - take;
        if !head_uops_left = 0 then begin
          dispatched.(i) <- true;
          (match events with
          | Some e -> e.dispatch_at.(i) <- now
          | None -> ());
          incr dispatch_head
        end
      end
    done;
    (* ---- Issue: scan dispatched-but-unissued instructions oldest first;
       an instruction issues when every source is ready and every port in
       its PortMap is free, reserving those ports. ---- *)
    let first_unissued = ref (-1) in
    for i = !oldest_waiting to !dispatch_head - 1 do
      if issue_time.(i) = max_int && dispatched.(i) then begin
        if !first_unissued < 0 then first_unissued := i;
        let st = static.(i mod len) in
        let deps_ready =
          Array.for_all
            (fun (dist, slot) ->
              let producer = i - dist in
              producer < 0
              || issue_time.(producer) <> max_int
                 &&
                 let wl = p.write_latency.(static.(producer mod len).opcode) in
                 let ra = p.read_advance.(st.opcode).(slot) in
                 issue_time.(producer) + max 0 (wl - ra) <= now)
            st.deps
        in
        if deps_ready then
          if st.idiom then begin
            (* Eliminated at rename: no execution resources, results
               available immediately. *)
            issue_time.(i) <- now;
            ready_time.(i) <- now;
            match events with
            | Some e ->
                e.issue_at.(i) <- now;
                e.ready_at.(i) <- now
            | None -> ()
          end
          else begin
            let pm = p.port_map.(st.opcode) in
            let ports_free = ref true in
            for q = 0 to Params.num_ports - 1 do
              if pm.(q) > 0 && port_busy.(q) > now then ports_free := false
            done;
            if !ports_free then begin
              for q = 0 to Params.num_ports - 1 do
                if pm.(q) > 0 then port_busy.(q) <- now + pm.(q)
              done;
              issue_time.(i) <- now;
              let max_pm = Array.fold_left max 0 pm in
              ready_time.(i) <- now + max p.write_latency.(st.opcode) max_pm;
              match events with
              | Some e ->
                  e.issue_at.(i) <- now;
                  e.ready_at.(i) <- ready_time.(i)
              | None -> ()
            end
          end
      end
    done;
    if !first_unissued >= 0 then oldest_waiting := max !oldest_waiting !first_unissued;
    incr cycle
  done;
  !cycle

(* [Pipeline.trace]'s contract over this loop. *)
let trace p ~iterations block =
  let n = iterations * Dt_x86.Block.length block in
  let events =
    {
      Pipeline.dispatch_at = Array.make n (-1);
      issue_at = Array.make n (-1);
      ready_at = Array.make n (-1);
      retire_at = Array.make n (-1);
    }
  in
  let total = run ~events p ~iterations block in
  (events, total)
