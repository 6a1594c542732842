(* Test oracle for Dt_refcpu.Machine: the reference machine's original
   loop.  [build_trace] renames every instruction of every iteration
   again (micro-op decomposition, register sets, a printed memory-address
   key), and [run] visits every cycle, re-testing each waiting micro-op's
   dependences and ports.  The production machine decodes each
   instruction once per block and jumps over cycles in which nothing can
   happen; test_refcpu.ml holds it to this loop cycle for cycle. *)

open Dt_refcpu
open Dt_x86

(* Which of a producer micro-op's results a consumer waits for. *)
type latclass = Data | Extra | Flag

(* How a register value is obtained at rename time. *)
type binding =
  | Ready                       (* available immediately (initial state,
                                   stack-engine RSP, eliminated idioms) *)
  | Produced of int * latclass  (* produced by micro-op [id] *)

type uop = {
  spec : Uarch.uop_spec option; (* None: eliminated at rename (zero idiom,
                                   eliminated move, NOP) *)
  deps : (int * latclass) list;
}

(* ------------------------------------------------------------------ *)
(* Building the micro-op trace for N iterations of a block.            *)
(* ------------------------------------------------------------------ *)

type builder = {
  cfg : Uarch.t;
  mutable uops_rev : uop list;
  mutable next_id : int;
  bindings : binding array;          (* per Reg.index *)
  mem_last_store : (string, int) Hashtbl.t;  (* address key -> std uop id *)
}

let new_builder cfg =
  {
    cfg;
    uops_rev = [];
    next_id = 0;
    bindings = Array.make Reg.count Ready;
    mem_last_store = Hashtbl.create 16;
  }

let push_uop b spec deps =
  let id = b.next_id in
  b.next_id <- id + 1;
  b.uops_rev <- { spec; deps } :: b.uops_rev;
  id

let dep_of_binding acc = function
  | Ready -> acc
  | Produced (id, c) -> (id, c) :: acc

let reg_dep b acc r = dep_of_binding acc b.bindings.(Reg.index r)

let mem_key m = Operand.to_string Reg.W64 (Operand.Mem m)

(* Registers read for address generation. *)
let addr_regs instr =
  match Instruction.mem_operand instr with
  | Some m -> Operand.mem_uses m
  | None -> []

(* A PUSH/POP address read of RSP resolved by the stack engine carries no
   scheduler dependency. *)
let stack_resolved b (instr : Instruction.t) r =
  b.cfg.Uarch.stack_engine
  && instr.opcode.kind = Opcode.Stack
  && Reg.equal r (Reg.Gpr Reg.RSP)

let is_eliminable_move (instr : Instruction.t) =
  match instr.opcode.name with
  | "MOV32rr" | "MOV64rr" | "MOVAPSrr" -> true
  | _ -> false

(* Append the micro-ops of one dynamic instruction instance. *)
let add_instruction b (instr : Instruction.t) =
  let op = instr.opcode in
  let cfg = b.cfg in
  let set r binding = b.bindings.(Reg.index r) <- binding in
  if op.kind = Opcode.Nop then ignore (push_uop b None [])
  else if cfg.zero_idiom_elim && Instruction.is_zero_idiom instr then begin
    (* Dependency-breaking idiom: destination and flags ready at rename. *)
    let _id = push_uop b None [] in
    List.iter (fun r -> set r Ready) (Instruction.writes instr)
  end
  else if cfg.mov_elimination && is_eliminable_move instr then begin
    (* Move elimination: zero-latency copy, but the dependency on the
       source's producer is inherited, not broken. *)
    let _id = push_uop b None [] in
    match (instr.operands.(0), instr.operands.(1)) with
    | Operand.Reg dst, Operand.Reg src ->
        set dst b.bindings.(Reg.index src)
    | _ -> assert false
  end
  else begin
    let specs = Uarch.uops cfg op in
    let addr = addr_regs instr in
    let addr_deps =
      List.fold_left
        (fun acc r ->
          if stack_resolved b instr r then acc else reg_dep b acc r)
        [] addr
    in
    let is_addr r = List.exists (Reg.equal r) addr in
    (* Data sources: registers read excluding pure address registers,
       excluding a stack-engine-resolved RSP. *)
    let data_srcs =
      Instruction.reads instr
      |> List.filter (fun r ->
             (not (is_addr r)) && not (stack_resolved b instr r))
    in
    let key = Option.map mem_key (Instruction.mem_operand instr) in
    let load_spec =
      List.find_opt (fun (u : Uarch.uop_spec) -> u.cls = Load) specs
    in
    let compute_spec =
      List.find_opt (fun (u : Uarch.uop_spec) -> u.cls = Compute) specs
    in
    let has_store =
      List.exists (fun (u : Uarch.uop_spec) -> u.cls = Store_address) specs
    in
    (* Load micro-op: waits on address registers and, if it aliases an
       earlier store, on that store's data (forwarding latency replaces
       the L1 latency; both are in the spec's latency via max below). *)
    let load_id =
      match load_spec with
      | None -> None
      | Some spec ->
          let fwd_deps, spec =
            match key with
            | Some k -> (
                match Hashtbl.find_opt b.mem_last_store k with
                | Some std_id ->
                    ( [ (std_id, Data) ],
                      { spec with latency = cfg.forward_latency } )
                | None -> ([], spec))
            | None -> ([], spec)
          in
          Some (push_uop b (Some spec) (addr_deps @ fwd_deps))
    in
    (* Compute micro-op: waits on data sources, flags, and the load. *)
    let compute_id =
      match compute_spec with
      | None -> None
      | Some spec ->
          let deps = List.fold_left (reg_dep b) [] data_srcs in
          let deps =
            match load_id with Some l -> (l, Data) :: deps | None -> deps
          in
          Some (push_uop b (Some spec) deps)
    in
    (* Store micro-ops: address generation then data. *)
    if has_store then begin
      let sta_spec =
        List.find (fun (u : Uarch.uop_spec) -> u.cls = Store_address) specs
      in
      let std_spec =
        List.find (fun (u : Uarch.uop_spec) -> u.cls = Store_data) specs
      in
      let sta_id = push_uop b (Some sta_spec) addr_deps in
      (* The stored value comes from the compute micro-op if there is one,
         otherwise straight from the data sources (MOV mr, PUSH). *)
      let data_deps =
        match compute_id with
        | Some c -> [ (c, Data) ]
        | None -> List.fold_left (reg_dep b) [] data_srcs
      in
      (* Stores to the same address stay ordered. *)
      let order_deps =
        match key with
        | Some k -> (
            match Hashtbl.find_opt b.mem_last_store k with
            | Some prev -> [ (prev, Data) ]
            | None -> [])
        | None -> []
      in
      let std_id =
        push_uop b (Some std_spec) (((sta_id, Data) :: data_deps) @ order_deps)
      in
      match key with
      | Some k -> Hashtbl.replace b.mem_last_store k std_id
      | None -> ()
    end;
    (* Rename: bind written registers to their producing micro-op. *)
    let producer = match compute_id with Some c -> Some c | None -> load_id in
    let primary_dests, implicit_dests =
      let implicit = op.implicit_writes in
      let all = Instruction.writes instr in
      let is_implicit r = List.exists (Reg.equal r) implicit in
      ( List.filter (fun r -> r <> Reg.Flags && not (is_implicit r)) all,
        List.filter (fun r -> r <> Reg.Flags && is_implicit r) all )
    in
    (match producer with
    | Some id ->
        List.iter (fun r -> set r (Produced (id, Data))) primary_dests;
        (* First implicit destination (e.g. RAX of MUL) is primary; later
           ones (RDX) arrive with the extra-destination delay. *)
        List.iteri
          (fun i r ->
            if stack_resolved b instr r then set r Ready
            else set r (Produced (id, if i = 0 then Data else Extra)))
          implicit_dests;
        if op.writes_flags then set Reg.Flags (Produced (id, Flag))
    | None ->
        (* Pure stores: only implicit destinations (RSP of PUSH). *)
        List.iter
          (fun r ->
            if stack_resolved b instr r then set r Ready
            else set r Ready)
          (primary_dests @ implicit_dests);
        if op.writes_flags then set Reg.Flags Ready)
  end

let build_trace cfg ~iterations (block : Block.t) =
  let b = new_builder cfg in
  for _ = 1 to iterations do
    Array.iter (add_instruction b) block.instrs
  done;
  Array.of_list (List.rev b.uops_rev)

(* ------------------------------------------------------------------ *)
(* Cycle-level execution of a micro-op trace.                          *)
(* ------------------------------------------------------------------ *)

let run cfg (trace : uop array) =
  let n = Array.length trace in
  if n = 0 then 0
  else begin
    let ready_data = Array.make n max_int in
    let ready_extra = Array.make n max_int in
    let ready_flag = Array.make n max_int in
    let issued = Array.make n false in
    let executed = Array.make n false in
    let dispatched = Array.make n false in
    let retired = ref 0 in
    let dispatch_head = ref 0 in
    let port_free_at = Array.make cfg.Uarch.num_ports 0 in
    let in_rob = ref 0 in
    let in_sched = ref 0 in
    (* Scheduler entries awaiting issue, oldest first. *)
    let sched : int Queue.t = Queue.create () in
    let dep_ready (id, c) =
      match c with
      | Data -> ready_data.(id)
      | Extra -> ready_extra.(id)
      | Flag -> ready_flag.(id)
    in
    let cycle = ref 0 in
    let finish_exec id at =
      executed.(id) <- true;
      let u = trace.(id) in
      match u.spec with
      | None ->
          ready_data.(id) <- at;
          ready_extra.(id) <- at;
          ready_flag.(id) <- at
      | Some spec ->
          ready_data.(id) <- at + spec.latency;
          ready_extra.(id) <- at + spec.latency + spec.extra_dest_latency;
          ready_flag.(id) <- at + spec.flag_latency
    in
    while !retired < n do
      let now = !cycle in
      (* Retire: in order, up to retire_width executed micro-ops whose
         results have materialized. *)
      let retire_budget = ref cfg.retire_width in
      let continue_retire = ref true in
      while !continue_retire && !retire_budget > 0 && !retired < n do
        let id = !retired in
        if
          dispatched.(id) && executed.(id)
          && ready_data.(id) <= now && ready_extra.(id) <= now
        then begin
          incr retired;
          decr in_rob;
          decr retire_budget
        end
        else continue_retire := false
      done;
      (* Dispatch: frontend delivers up to min(decode, dispatch) micro-ops
         per cycle, subject to ROB and scheduler capacity. *)
      let dispatch_budget =
        ref (min cfg.decode_width cfg.dispatch_width)
      in
      while
        !dispatch_budget > 0 && !dispatch_head < n
        && !in_rob < cfg.rob_size
        && !in_sched < cfg.sched_size
      do
        let id = !dispatch_head in
        incr dispatch_head;
        decr dispatch_budget;
        incr in_rob;
        dispatched.(id) <- true;
        match trace.(id).spec with
        | None ->
            (* Eliminated at rename: completes immediately, no scheduler
               entry. *)
            finish_exec id now
        | Some _ ->
            incr in_sched;
            Queue.add id sched
      done;
      (* Issue: oldest-first scan of the scheduler window. *)
      let still_waiting = Queue.create () in
      Queue.iter
        (fun id ->
          if issued.(id) then ()
          else begin
            let u = trace.(id) in
            let spec = Option.get u.spec in
            let deps_ready =
              List.for_all (fun d -> dep_ready d <= now) u.deps
            in
            let port =
              if deps_ready then
                List.find_opt (fun p -> port_free_at.(p) <= now) spec.ports
              else None
            in
            match port with
            | Some p when deps_ready ->
                port_free_at.(p) <- now + spec.occupancy;
                issued.(id) <- true;
                decr in_sched;
                finish_exec id now
            | _ -> Queue.add id still_waiting
          end)
        sched;
      Queue.clear sched;
      Queue.transfer still_waiting sched;
      incr cycle
    done;
    !cycle
  end

(* Total cycles of [iterations] back-to-back copies of [block]. *)
let cycles cfg ~iterations block = run cfg (build_trace cfg ~iterations block)
