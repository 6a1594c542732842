open Dt_x86

(* A register binding at rename time is an int: [-1] when the value is
   available immediately (initial state, stack-engine RSP, eliminated
   idioms), otherwise [3 * id + cls] for micro-op [id]'s result of class
   [cls].  The same int indexes the array of result-ready cycles. *)
let ready_binding = -1
let data = 0 (* the primary result *)
let extra = 1 (* secondary destinations, e.g. RDX of MUL *)
let flag = 2 (* the flags result *)

(* An executing micro-op's characteristics, flattened for the cycle loop. *)
type spec = {
  latency : int;
  extra_latency : int; (* latency + extra_dest_latency *)
  flag_latency : int;
  occupancy : int;
  ports : int array;
}

let spec_of (u : Uarch.uop_spec) =
  {
    latency = u.latency;
    extra_latency = u.latency + u.extra_dest_latency;
    flag_latency = u.flag_latency;
    occupancy = u.occupancy;
    ports = Array.of_list u.ports;
  }

(* ------------------------------------------------------------------ *)
(* Decoding: each instruction of the block once.                       *)
(* ------------------------------------------------------------------ *)

(* An instruction that reaches the scheduler. *)
type executed = {
  addr : int array;
      (* address registers, less a stack-engine-resolved RSP *)
  sources : int array;
      (* data sources: registers read that are neither address registers
         nor a stack-engine-resolved RSP *)
  key : int; (* interned memory address, or -1 *)
  load : spec option; (* at the L1 latency *)
  forwarded : spec option; (* the load at the forwarding latency *)
  compute : spec option;
  store_address : spec option; (* a store has both or neither *)
  store_data : spec option;
  dests : int array; (* registers renamed to this instruction ... *)
  classes : int array;
      (* ... to the producer's result of this class, or ready at rename *)
}

type decoded =
  | Eliminated of int array
      (* NOP or zero idiom: one micro-op done at rename, these registers
         ready *)
  | Moved of int * int
      (* eliminated move (dst, src): the destination inherits the
         source's binding *)
  | Executed of executed

let is_eliminable_move (instr : Instruction.t) =
  match instr.opcode.name with
  | "MOV32rr" | "MOV64rr" | "MOVAPSrr" -> true
  | _ -> false

let decode_executed cfg keys (instr : Instruction.t) =
  let op = instr.opcode in
  (* A PUSH/POP address read of RSP resolved by the stack engine carries
     no scheduler dependency. *)
  let stack_resolved r =
    cfg.Uarch.stack_engine && op.kind = Opcode.Stack
    && Reg.equal r (Reg.Gpr Reg.RSP)
  in
  let indices regs = Array.of_list (List.map Reg.index regs) in
  let mem = Instruction.mem_operand instr in
  let addr = match mem with Some m -> Operand.mem_uses m | None -> [] in
  let is_addr r = List.exists (Reg.equal r) addr in
  let key =
    match mem with
    | None -> -1
    | Some m -> (
        let k = Operand.to_string Reg.W64 (Operand.Mem m) in
        match Hashtbl.find_opt keys k with
        | Some i -> i
        | None ->
            let i = Hashtbl.length keys in
            Hashtbl.add keys k i;
            i)
  in
  let specs = Uarch.uops cfg op in
  let find cls =
    List.find_opt (fun (u : Uarch.uop_spec) -> u.cls = cls) specs
  in
  let load = find Load in
  let compute = Option.map spec_of (find Compute) in
  let store_address, store_data =
    match (find Store_address, find Store_data) with
    | Some sta, Some std -> (Some (spec_of sta), Some (spec_of std))
    | _ -> (None, None)
  in
  (* Rename: written registers bind to the compute micro-op, else the
     load; a pure store leaves them ready. *)
  let has_producer = Option.is_some compute || Option.is_some load in
  let implicit = op.implicit_writes in
  let is_implicit r = List.exists (Reg.equal r) implicit in
  let written =
    List.filter (fun r -> r <> Reg.Flags) (Instruction.writes instr)
  in
  let primary = List.filter (fun r -> not (is_implicit r)) written in
  (* The first implicit destination (e.g. RAX of MUL) is primary; later
     ones (RDX) arrive with the extra-destination delay. *)
  let implicit_dests =
    List.filter is_implicit written
    |> List.mapi (fun i r ->
           (r, if stack_resolved r then ready_binding
               else if i = 0 then data
               else extra))
  in
  let renames =
    List.map (fun r -> (r, data)) primary
    @ implicit_dests
    @ if op.writes_flags then [ (Reg.Flags, flag) ] else []
  in
  let renames =
    if has_producer then renames
    else List.map (fun (r, _) -> (r, ready_binding)) renames
  in
  {
    addr = indices (List.filter (fun r -> not (stack_resolved r)) addr);
    sources =
      indices
        (List.filter
           (fun r -> (not (is_addr r)) && not (stack_resolved r))
           (Instruction.reads instr));
    key;
    load = Option.map spec_of load;
    forwarded =
      Option.map
        (fun u -> spec_of { u with Uarch.latency = cfg.forward_latency })
        load;
    compute;
    store_address;
    store_data;
    dests = Array.of_list (List.map (fun (r, _) -> Reg.index r) renames);
    classes = Array.of_list (List.map snd renames);
  }

(* Each instruction's micro-ops and rename actions, computed once per
   block; [keys] interns the memory addresses the block names. *)
let decode cfg (block : Block.t) =
  let keys = Hashtbl.create 8 in
  let decoded =
    Array.map
      (fun (instr : Instruction.t) ->
        if instr.opcode.kind = Opcode.Nop then Eliminated [||]
        else if cfg.Uarch.zero_idiom_elim && Instruction.is_zero_idiom instr
        then
          (* Dependency-breaking idiom: destination and flags ready at
             rename. *)
          Eliminated
            (Array.of_list (List.map Reg.index (Instruction.writes instr)))
        else if cfg.mov_elimination && is_eliminable_move instr then
          (* Move elimination: zero-latency copy, but the dependency on
             the source's producer is inherited, not broken. *)
          match (instr.operands.(0), instr.operands.(1)) with
          | Operand.Reg dst, Operand.Reg src ->
              Moved (Reg.index dst, Reg.index src)
          | _ -> assert false
        else Executed (decode_executed cfg keys instr))
      block.instrs
  in
  (decoded, Hashtbl.length keys)

(* ------------------------------------------------------------------ *)
(* Unrolling: the micro-op trace of N iterations.                      *)
(* ------------------------------------------------------------------ *)

(* Micro-op [id] executes with [specs.(id)] ([None]: eliminated at
   rename) once the results [deps.(dep_start.(id)) ..
   deps.(dep_start.(id + 1) - 1)] (bindings) are ready. *)
type trace = {
  specs : spec option array;
  dep_start : int array;
  deps : int array;
}

(* Micro-ops and an upper bound on dependences of one iteration. *)
let iteration_size decoded =
  Array.fold_left
    (fun (uops, deps) -> function
      | Eliminated _ | Moved _ -> (uops + 1, deps)
      | Executed e ->
          let a = Array.length e.addr and s = Array.length e.sources in
          let load_uops, load_deps =
            if Option.is_some e.load then (1, a + 1) else (0, 0)
          in
          let compute_uops, compute_deps =
            if Option.is_some e.compute then (1, s + 1) else (0, 0)
          in
          let store_uops, store_deps =
            if Option.is_some e.store_address then (2, a + 2 + Int.max s 1)
            else (0, 0)
          in
          ( uops + load_uops + compute_uops + store_uops,
            deps + load_deps + compute_deps + store_deps ))
    (0, 0) decoded

let unroll ~iterations (decoded, nkeys) =
  let uops, max_deps = iteration_size decoded in
  let n = iterations * uops in
  let specs = Array.make n None in
  let dep_start = Array.make (n + 1) 0 in
  let deps = Array.make (iterations * max_deps) 0 in
  let bindings = Array.make Reg.count ready_binding in
  (* Per interned address: the store-data micro-op of its last store. *)
  let last_store = Array.make nkeys (-1) in
  let next_id = ref 0 and next_dep = ref 0 in
  let push spec =
    let id = !next_id in
    specs.(id) <- spec;
    dep_start.(id) <- !next_dep;
    next_id := id + 1;
    id
  in
  let dep binding =
    if binding <> ready_binding then begin
      deps.(!next_dep) <- binding;
      incr next_dep
    end
  in
  let reg_deps regs =
    for j = 0 to Array.length regs - 1 do
      dep bindings.(regs.(j))
    done
  in
  let add = function
    | Eliminated ready ->
        ignore (push None);
        for j = 0 to Array.length ready - 1 do
          bindings.(ready.(j)) <- ready_binding
        done
    | Moved (dst, src) ->
        ignore (push None);
        bindings.(dst) <- bindings.(src)
    | Executed e ->
        let prev_store = if e.key >= 0 then last_store.(e.key) else -1 in
        (* Load: waits on its address registers and, if it aliases an
           earlier store, on that store's data at the forwarding
           latency. *)
        let load =
          match e.load with
          | None -> -1
          | Some _ ->
              let forwarded = prev_store >= 0 in
              let id = push (if forwarded then e.forwarded else e.load) in
              reg_deps e.addr;
              if forwarded then dep ((3 * prev_store) + data);
              id
        in
        (* Compute: waits on data sources, flags, and the load. *)
        let compute =
          match e.compute with
          | None -> -1
          | Some _ ->
              let id = push e.compute in
              reg_deps e.sources;
              if load >= 0 then dep ((3 * load) + data);
              id
        in
        (match e.store_address with
        | None -> ()
        | Some _ ->
            let sta = push e.store_address in
            reg_deps e.addr;
            let std = push e.store_data in
            dep ((3 * sta) + data);
            (* The stored value comes from the compute micro-op if there
               is one, otherwise straight from the data sources (MOV mr,
               PUSH). *)
            if compute >= 0 then dep ((3 * compute) + data)
            else reg_deps e.sources;
            (* Stores to the same address stay ordered. *)
            if prev_store >= 0 then dep ((3 * prev_store) + data);
            if e.key >= 0 then last_store.(e.key) <- std);
        let producer = if compute >= 0 then compute else load in
        for j = 0 to Array.length e.dests - 1 do
          let cls = e.classes.(j) in
          bindings.(e.dests.(j)) <-
            (if cls = ready_binding then ready_binding
             else (3 * producer) + cls)
        done
  in
  for _ = 1 to iterations do
    Array.iter add decoded
  done;
  dep_start.(n) <- !next_dep;
  { specs; dep_start; deps }

(* ------------------------------------------------------------------ *)
(* Event-driven execution of a micro-op trace.                         *)
(* ------------------------------------------------------------------ *)

(* Cycles until every micro-op of [t] has retired.  Each visited cycle
   retires, dispatches, then issues exactly as a cycle-by-cycle loop
   would; a cycle in which none of the three happens jumps straight to
   the next cycle at which the retire head's results land or a waiting
   micro-op has its sources and a free port, since nothing else can
   change before then. *)
let simulate cfg t =
  let n = Array.length t.specs in
  (* Result-ready cycle by binding, written exactly once when the
     micro-op executes; max_int until then.  The extra last binding is a
     result ready from cycle 0. *)
  let ready = Array.make ((3 * n) + 1) max_int in
  let always = 3 * n in
  ready.(always) <- 0;
  (* Scheduler entries awaiting issue, oldest first. *)
  let waiting = Array.make cfg.Uarch.sched_size 0 in
  let num_waiting = ref 0 in
  (* Per waiting micro-op: its first dependence not yet seen executed,
     and a gate: a binding whose ready cycle bounds its issue from below.
     While a producer has yet to execute, the gate is that producer's
     result; once all have executed, it is the one that lands last. *)
  let dep_next = Array.make n 0 in
  let gate = Array.make n always in
  let settled id = dep_next.(id) = t.dep_start.(id + 1) in
  (* Moves [id]'s gate past the producers that have executed; true once
     all have. *)
  let settle id =
    let stop = t.dep_start.(id + 1) in
    let i = ref dep_next.(id) in
    while !i < stop && ready.(t.deps.(!i)) < max_int do
      incr i
    done;
    dep_next.(id) <- !i;
    if !i < stop then begin
      gate.(id) <- t.deps.(!i);
      false
    end
    else begin
      let g = ref always in
      for j = t.dep_start.(id) to stop - 1 do
        if ready.(t.deps.(j)) > ready.(!g) then g := t.deps.(j)
      done;
      gate.(id) <- !g;
      true
    end
  in
  let port_free_at = Array.make cfg.num_ports 0 in
  let retired = ref 0 and dispatch_head = ref 0 in
  let dispatch_width = Int.min cfg.decode_width cfg.dispatch_width in
  let execute id at =
    let b = 3 * id in
    match t.specs.(id) with
    | None ->
        ready.(b + data) <- at;
        ready.(b + extra) <- at;
        ready.(b + flag) <- at
    | Some s ->
        ready.(b + data) <- at + s.latency;
        ready.(b + extra) <- at + s.extra_latency;
        ready.(b + flag) <- at + s.flag_latency
  in
  let spec id = match t.specs.(id) with Some s -> s | None -> assert false in
  let rec free_port ports j now =
    if j = Array.length ports then -1
    else if port_free_at.(ports.(j)) <= now then ports.(j)
    else free_port ports (j + 1) now
  in
  let earliest_port ports =
    let m = ref max_int in
    for j = 0 to Array.length ports - 1 do
      m := Int.min !m port_free_at.(ports.(j))
    done;
    !m
  in
  (* The next cycle at which anything can happen, after one in which
     nothing did: the retire head's results land, or a waiting micro-op's
     gate opens on a free port.  A gate on a producer that has executed
     is only a lower bound, so the cycle found may pass quietly too. *)
  let next_event () =
    let head = !retired in
    let next =
      ref (if head < !dispatch_head
           then Int.max ready.((3 * head) + data) ready.((3 * head) + extra)
           else max_int)
    in
    for i = 0 to !num_waiting - 1 do
      let id = waiting.(i) in
      let r = ready.(gate.(id)) in
      if r < max_int then
        next := Int.min !next (Int.max r (earliest_port (spec id).ports))
    done;
    !next
  in
  let cycle = ref 0 in
  while !retired < n do
    let now = !cycle in
    (* Retire: in order, up to retire_width executed micro-ops whose
       results have materialized. *)
    let retire_from = !retired in
    while
      !retired - retire_from < cfg.retire_width
      && !retired < !dispatch_head
      && ready.((3 * !retired) + data) <= now
      && ready.((3 * !retired) + extra) <= now
    do
      incr retired
    done;
    (* Dispatch: frontend delivers up to min(decode, dispatch) micro-ops
       per cycle, subject to ROB and scheduler capacity. *)
    let dispatch_from = !dispatch_head in
    while
      !dispatch_head - dispatch_from < dispatch_width
      && !dispatch_head < n
      && !dispatch_head - !retired < cfg.rob_size
      && !num_waiting < cfg.sched_size
    do
      let id = !dispatch_head in
      incr dispatch_head;
      match t.specs.(id) with
      | None ->
          (* Eliminated at rename: completes immediately, no scheduler
             entry. *)
          execute id now
      | Some _ ->
          dep_next.(id) <- t.dep_start.(id);
          ignore (settle id);
          waiting.(!num_waiting) <- id;
          incr num_waiting
    done;
    (* Issue: oldest-first scan of the waiting micro-ops; one whose gate
       is still shut costs a single lookup. *)
    let kept = ref 0 in
    for i = 0 to !num_waiting - 1 do
      let id = waiting.(i) in
      let port =
        if
          ready.(gate.(id)) <= now
          && (settled id || settle id)
          && ready.(gate.(id)) <= now
        then free_port (spec id).ports 0 now
        else -1
      in
      if port >= 0 then begin
        port_free_at.(port) <- now + (spec id).occupancy;
        execute id now
      end
      else begin
        waiting.(!kept) <- id;
        incr kept
      end
    done;
    let issued = !kept < !num_waiting in
    num_waiting := !kept;
    cycle :=
      if issued || !retired > retire_from || !dispatch_head > dispatch_from
      then now + 1
      else next_event ()
  done;
  !cycle

let cycles_per_iteration cfg ?(iterations = 100) block =
  if iterations <= 0 then
    invalid_arg "Machine.cycles_per_iteration: iterations must be positive";
  let trace = unroll ~iterations (decode cfg block) in
  float_of_int (simulate cfg trace) /. float_of_int iterations

let timing cfg block = cycles_per_iteration cfg ~iterations:100 block
