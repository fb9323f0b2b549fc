module Range = Pift_util.Range

type access = Load of Range.t | Store of Range.t | Other

type t = {
  seq : int;
  k : int;
  pid : int;
  insn : Pift_arm.Insn.t;
  access : access;
}

let kind_load = 0
let kind_store = 1
let kind_other = 2

let is_load e = match e.access with Load _ -> true | Store _ | Other -> false
let is_store e = match e.access with Store _ -> true | Load _ | Other -> false

let range e =
  match e.access with Load r | Store r -> Some r | Other -> None

let pp ppf e =
  let pp_access ppf = function
    | Load r -> Format.fprintf ppf " ; load %a" Range.pp r
    | Store r -> Format.fprintf ppf " ; store %a" Range.pp r
    | Other -> ()
  in
  Format.fprintf ppf "[%d:%d] pid=%d %a%a" e.seq e.k e.pid Pift_arm.Insn.pp
    e.insn pp_access e.access
