type readout_error =
  | Tamper_response_triggered
  | Not_provisioned

type t = {
  mutable entries : (string * Rfchain.Config.t) list;
  mutable tampered : bool;
}

let provision entries = { entries; tampered = false }

let select t ~standard =
  if t.tampered then Error Tamper_response_triggered
  else
    match List.assoc_opt standard t.entries with
    | Some config -> Ok config
    | None -> Error Not_provisioned

let raw_readout t =
  (* Tamper-proof: the attempt itself zeroises the store. *)
  t.tampered <- true;
  t.entries <- [];
  Error Tamper_response_triggered

let tampered t = t.tampered
