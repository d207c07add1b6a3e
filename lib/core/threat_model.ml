type outcome = {
  scenario : string;
  attacker_success : bool;
  detail : string;
}

let request standard ~seed config =
  Engine.Request.make ~die:(Engine.Request.die_of_seed seed) ~standard ~config
    Engine.Request.Full

let evaluate_config standard ~seed config =
  Metrics.Spec.functional standard (Engine.Service.eval (request standard ~seed config))

(* One streamed engine grid for a whole (die, config) matrix — the
   lot-study transfer matrix and the security table's transfer column.
   The full grid goes to the scheduler at once (no per-batch barrier);
   [eval_batch] drains the stream and reassembles by index, so the flag
   list is in point order. *)
let evaluate_many standard points =
  Engine.Service.eval_batch (List.map (fun (seed, config) -> request standard ~seed config) points)
  |> List.map (Metrics.Spec.functional standard)

(* The paper's cloning claim: a clone is "good-for-nothing if the
   adversary does not know how the design can be programmed".  The
   primary outcome is therefore the unkeyed clone; a stolen key's
   transferability across a clone lot is reported as a secondary
   statistic (process variations make it hit-or-miss: the key encodes
   the victim die's corners, not the clone's). *)
let cloning ?(seed = 990001) ?(lot = 6) standard ~golden_key =
  let unkeyed = evaluate_config standard ~seed Rfchain.Config.nominal in
  let stolen_works =
    List.length
      (List.filter
         (fun i -> evaluate_config standard ~seed:(seed + i) (Key.config golden_key))
         (List.init lot (fun i -> i)))
  in
  {
    scenario = "cloning";
    attacker_success = unkeyed;
    detail =
      Printf.sprintf
        "clone die %d without key %s spec; stolen key from die %d transfers to %d/%d clones"
        seed
        (if unkeyed then "MEETS" else "fails")
        golden_key.Key.chip_seed stolen_works lot;
  }

let overproduction ~fabricated ~provisioned =
  let usable = min fabricated provisioned in
  {
    scenario = "overproduction";
    attacker_success = usable > provisioned;
    detail =
      Printf.sprintf
        "foundry fabricated %d dice, design house provisioned %d: %d usable, %d inert"
        fabricated provisioned usable (fabricated - usable);
  }

let recycling standard ~seed ~key =
  let chip = Circuit.Process.fabricate ~seed () in
  (* LUT scheme: the key is inside the part, so a recycled part works. *)
  let lut = Key_mgmt.provision_lut [ key ] in
  let lut_works =
    match Key_mgmt.power_on lut ~standard:standard.Rfchain.Standards.name () with
    | Ok config -> evaluate_config standard ~seed config
    | Error _ -> false
  in
  let lut_outcome =
    {
      scenario = "recycling (LUT scheme)";
      attacker_success = lut_works;
      detail = "configuration travels inside the tamper-proof LUT: recycled part still works";
    }
  in
  (* PUF scheme: without the customer's user keys nothing loads. *)
  let puf_scheme, _user_keys = Key_mgmt.provision_puf chip [ key ] in
  let puf_works =
    match Key_mgmt.power_on puf_scheme ~standard:standard.Rfchain.Standards.name () with
    | Ok config -> evaluate_config standard ~seed config
    | Error _ -> false
  in
  let puf_outcome =
    {
      scenario = "recycling (PUF scheme)";
      attacker_success = puf_works;
      detail = "user keys are loaded at every power-on and do not travel with e-waste";
    }
  in
  (lut_outcome, puf_outcome)

let remarking standard ~seed =
  (* The design house answers a failed calibration by loading a scrap
     word: feedback open, input off, everything mistrimmed. *)
  let scrap =
    {
      Rfchain.Config.nominal with
      fb_enable = false;
      gmin_enable = false;
      gm_q = 63;
      cap_coarse = 255;
    }
  in
  let works = evaluate_config standard ~seed scrap in
  {
    scenario = "remarking";
    attacker_success = works;
    detail = "failing die loaded with a scrap configuration before leaving the test floor";
  }
