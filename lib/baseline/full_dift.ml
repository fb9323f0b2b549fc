module Range = Pift_util.Range
module Insn = Pift_arm.Insn
module Reg = Pift_arm.Reg
module Event = Pift_trace.Event
module Store_flat = Pift_core.Store_flat
module Sset = Set.Make (String)

(* [oregs]/[omem] shadow the boolean state with per-origin sets when
   [track_origins] is on; they are allocated either way (16 empty sets
   and an empty table per process) but never touched when off, so the
   ground-truth hot path is unchanged. *)
type proc = {
  regs : bool array;
  mem : Store_flat.t;
  oregs : Sset.t array;
  omem : (string, Store_flat.t) Hashtbl.t;
}

type t = {
  procs : (int, proc) Hashtbl.t;
  track_origins : bool;
  mutable labels : Sset.t;
  mutable propagations : int;
}

let create ?(track_origins = false) () =
  {
    procs = Hashtbl.create 4;
    track_origins;
    labels = Sset.empty;
    propagations = 0;
  }

let proc t pid =
  match Hashtbl.find_opt t.procs pid with
  | Some p -> p
  | None ->
      let p =
        {
          regs = Array.make 16 false;
          mem = Store_flat.create ();
          oregs = Array.make 16 Sset.empty;
          omem = Hashtbl.create 4;
        }
      in
      Hashtbl.add t.procs pid p;
      p

let olabel p label =
  match Hashtbl.find_opt p.omem label with
  | Some s -> s
  | None ->
      let s = Store_flat.create () in
      Hashtbl.add p.omem label s;
      s

let taint_source ?(kind = "source") t ~pid r =
  let p = proc t pid in
  Store_flat.add p.mem r;
  if t.track_origins then begin
    t.labels <- Sset.add kind t.labels;
    Store_flat.add (olabel p kind) r
  end

let is_tainted t ~pid r = Store_flat.mem_overlap (proc t pid).mem r
let reg_tainted t ~pid reg = (proc t pid).regs.(Reg.index reg)

let tainted_bytes t =
  Hashtbl.fold (fun _ p acc -> acc + Store_flat.total_bytes p.mem) t.procs 0

let tainted_ranges t ~pid = Store_flat.ranges (proc t pid).mem
let propagations t = t.propagations

(* Origin sets are exact: which source kinds' data overlaps the range.
   Folding over the sorted global label set keeps the answer (and any
   emission built on it) independent of Hashtbl order. *)
let origins_of t ~pid r =
  let p = proc t pid in
  Sset.elements
    (Sset.filter
       (fun label ->
         match Hashtbl.find_opt p.omem label with
         | Some s -> Store_flat.mem_overlap s r
         | None -> false)
       t.labels)

let reg_origins t ~pid reg = Sset.elements (proc t pid).oregs.(Reg.index reg)

(* [propagations] counts boolean shadow operations only, so the metric
   is identical with origin tracking on or off. *)
let set_reg t p i v =
  t.propagations <- t.propagations + 1;
  p.regs.(i) <- v

let set_mem t p range v =
  t.propagations <- t.propagations + 1;
  if v then Store_flat.add p.mem range else Store_flat.remove p.mem range

let operand_taint p = function
  | Insn.Imm _ -> false
  | Insn.Reg r | Insn.Shifted (r, _) -> p.regs.(Reg.index r)

(* Word-sized sub-ranges of a multi-register transfer. *)
let word_slot range i = Range.of_len (Range.lo range + (4 * i)) 4

(* --- per-origin mirror of the boolean propagation rules ----------------- *)

let omem_hit t p r =
  Sset.filter
    (fun label ->
      match Hashtbl.find_opt p.omem label with
      | Some s -> Store_flat.mem_overlap s r
      | None -> false)
    t.labels

(* Exact strong update, the per-label analogue of [set_mem]: a store
   writes its register's origin set and *clears* every other origin from
   the written range (a clean store untaints all of them). *)
let oset_mem t p range oset =
  Sset.iter
    (fun label ->
      let s = olabel p label in
      if Sset.mem label oset then Store_flat.add s range
      else Store_flat.remove s range)
    t.labels

let operand_origins p = function
  | Insn.Imm _ -> Sset.empty
  | Insn.Reg r | Insn.Shifted (r, _) -> p.oregs.(Reg.index r)

let observe_origins t p e =
  let set_oreg i s = p.oregs.(i) <- s in
  match (e.Event.insn, e.Event.access) with
  | Insn.Ldr (w, r, _), Event.Load range -> (
      match w with
      | Insn.Dword ->
          let lo_half = Range.of_len (Range.lo range) 4 in
          let hi_half = Range.of_len (Range.lo range + 4) 4 in
          set_oreg (Reg.index r) (omem_hit t p lo_half);
          set_oreg (Reg.index (Reg.succ r)) (omem_hit t p hi_half)
      | Insn.Byte | Insn.Half | Insn.Word ->
          set_oreg (Reg.index r) (omem_hit t p range))
  | Insn.Str (w, r, _), Event.Store range -> (
      match w with
      | Insn.Dword ->
          oset_mem t p
            (Range.of_len (Range.lo range) 4)
            p.oregs.(Reg.index r);
          oset_mem t p
            (Range.of_len (Range.lo range + 4) 4)
            p.oregs.(Reg.index (Reg.succ r))
      | Insn.Byte | Insn.Half | Insn.Word ->
          oset_mem t p range p.oregs.(Reg.index r))
  | Insn.Ldm (_, regs), Event.Load range ->
      List.iteri
        (fun i r -> set_oreg (Reg.index r) (omem_hit t p (word_slot range i)))
        regs
  | Insn.Stm (_, regs), Event.Store range ->
      List.iteri
        (fun i r -> oset_mem t p (word_slot range i) p.oregs.(Reg.index r))
        regs
  | Insn.Mov (r, op), _ | Insn.Mvn (r, op), _ ->
      set_oreg (Reg.index r) (operand_origins p op)
  | Insn.Alu (_, _, d, s, o), _ ->
      set_oreg (Reg.index d)
        (Sset.union p.oregs.(Reg.index s) (operand_origins p o))
  | Insn.Ubfx (d, s, _, _), _ -> set_oreg (Reg.index d) p.oregs.(Reg.index s)
  | Insn.Udiv (d, n, m), _ ->
      set_oreg (Reg.index d)
        (Sset.union p.oregs.(Reg.index n) p.oregs.(Reg.index m))
  | Insn.Bl _, _ -> set_oreg (Reg.index Reg.LR) Sset.empty
  | Insn.Cmp _, _ | Insn.B _, _ | Insn.Bx _, _ | Insn.Nop, _ -> ()
  | (Insn.Ldr _ | Insn.Str _ | Insn.Ldm _ | Insn.Stm _), _ -> assert false

let observe t e =
  let p = proc t e.Event.pid in
  (* The origin mirror reads only origin state and the bool pass reads
     only bool state, so running it first changes nothing — but keeping
     it first means both passes see the same pre-instruction world. *)
  if t.track_origins then observe_origins t p e;
  match (e.Event.insn, e.Event.access) with
  | Insn.Ldr (w, r, _), Event.Load range -> (
      match w with
      | Insn.Dword ->
          let lo_half = Range.of_len (Range.lo range) 4 in
          let hi_half = Range.of_len (Range.lo range + 4) 4 in
          set_reg t p (Reg.index r) (Store_flat.mem_overlap p.mem lo_half);
          set_reg t p
            (Reg.index (Reg.succ r))
            (Store_flat.mem_overlap p.mem hi_half)
      | Insn.Byte | Insn.Half | Insn.Word ->
          set_reg t p (Reg.index r) (Store_flat.mem_overlap p.mem range))
  | Insn.Str (w, r, _), Event.Store range -> (
      match w with
      | Insn.Dword ->
          set_mem t p
            (Range.of_len (Range.lo range) 4)
            p.regs.(Reg.index r);
          set_mem t p
            (Range.of_len (Range.lo range + 4) 4)
            p.regs.(Reg.index (Reg.succ r))
      | Insn.Byte | Insn.Half | Insn.Word ->
          set_mem t p range p.regs.(Reg.index r))
  | Insn.Ldm (_, regs), Event.Load range ->
      List.iteri
        (fun i r ->
          set_reg t p (Reg.index r)
            (Store_flat.mem_overlap p.mem (word_slot range i)))
        regs
  | Insn.Stm (_, regs), Event.Store range ->
      List.iteri
        (fun i r -> set_mem t p (word_slot range i) p.regs.(Reg.index r))
        regs
  | Insn.Mov (r, op), _ | Insn.Mvn (r, op), _ ->
      set_reg t p (Reg.index r) (operand_taint p op)
  | Insn.Alu (_, _, d, s, o), _ ->
      set_reg t p (Reg.index d) (p.regs.(Reg.index s) || operand_taint p o)
  | Insn.Ubfx (d, s, _, _), _ ->
      set_reg t p (Reg.index d) p.regs.(Reg.index s)
  | Insn.Udiv (d, n, m), _ ->
      set_reg t p (Reg.index d)
        (p.regs.(Reg.index n) || p.regs.(Reg.index m))
  | Insn.Bl _, _ ->
      (* LR receives a code address: always clean. *)
      set_reg t p (Reg.index Reg.LR) false
  | Insn.Cmp _, _ | Insn.B _, _ | Insn.Bx _, _ | Insn.Nop, _ -> ()
  | (Insn.Ldr _ | Insn.Str _ | Insn.Ldm _ | Insn.Stm _), _ ->
      (* A memory instruction must carry its access. *)
      assert false
