(* Tests for the locking core: keys, key management, threats. *)

let std = Rfchain.Standards.max_frequency
let chip ?(seed = 42) () = Circuit.Process.fabricate ~seed ()

let some_key ?(seed = 42) () =
  let c = chip ~seed () in
  Core.Key.make ~standard:std ~chip:c (Rfchain.Config.with_field Rfchain.Config.nominal "gm_q" 29)

(* ------------------------------------------------------------------ Key *)

let test_key_identity () =
  let k = some_key () in
  Alcotest.(check string) "standard recorded" "max-3GHz" k.Core.Key.standard;
  Alcotest.(check int) "die recorded" 42 k.Core.Key.chip_seed;
  Alcotest.(check int) "self distance" 0 (Core.Key.hamming_distance k k)

(* A key unlocks its die exactly when the measurement meets the standard it
   was made for: the verdict is the spec's, so a key adds no rule of its own. *)
let test_key_unlocks_semantics () =
  let k = some_key () in
  Alcotest.(check string) "key made for the spec's standard" std.Rfchain.Standards.name
    k.Core.Key.standard;
  let good = { Metrics.Spec.snr_mod_db = 45.0; snr_rx_db = 44.0; sfdr_db = None } in
  let bad = { good with Metrics.Spec.snr_mod_db = 10.0 } in
  Alcotest.(check bool) "good measurement unlocks" true (Metrics.Spec.functional std good);
  Alcotest.(check bool) "bad measurement stays locked" false (Metrics.Spec.functional std bad)

(* ----------------------------------------------------------- Lut_memory *)

let test_lut_select () =
  let lut = Core.Lut_memory.provision [ ("bluetooth", Rfchain.Config.nominal) ] in
  (match Core.Lut_memory.select lut ~standard:"bluetooth" with
  | Ok c -> Alcotest.(check bool) "returns the word" true (Rfchain.Config.equal c Rfchain.Config.nominal)
  | Error _ -> Alcotest.fail "provisioned mode must load");
  (match Core.Lut_memory.select lut ~standard:"zigbee" with
  | Error Core.Lut_memory.Not_provisioned -> ()
  | Ok _ | Error Core.Lut_memory.Tamper_response_triggered -> Alcotest.fail "unprovisioned mode")

let test_lut_tamper () =
  let lut = Core.Lut_memory.provision [ ("bluetooth", Rfchain.Config.nominal) ] in
  (match Core.Lut_memory.raw_readout lut with
  | Error Core.Lut_memory.Tamper_response_triggered -> ()
  | Ok _ | Error Core.Lut_memory.Not_provisioned -> Alcotest.fail "raw readout must trip tamper");
  Alcotest.(check bool) "memory zeroised" true (Core.Lut_memory.tampered lut);
  match Core.Lut_memory.select lut ~standard:"bluetooth" with
  | Error Core.Lut_memory.Tamper_response_triggered -> ()
  | Ok _ | Error Core.Lut_memory.Not_provisioned -> Alcotest.fail "post-tamper select must fail"

(* ------------------------------------------------------------------ Puf *)

let test_puf_stability () =
  let p = Core.Puf.enroll (chip ()) in
  Alcotest.(check int64) "stable response" (Core.Puf.response p ~challenge:5)
    (Core.Puf.response p ~challenge:5);
  Alcotest.(check bool) "challenges differ" true
    (Core.Puf.response p ~challenge:5 <> Core.Puf.response p ~challenge:6)

let test_puf_uniqueness () =
  let a = Core.Puf.enroll (chip ~seed:1 ()) and b = Core.Puf.enroll (chip ~seed:2 ()) in
  let u = Core.Puf.uniqueness a b in
  Alcotest.(check bool) (Printf.sprintf "inter-die distance near 0.5 (got %.3f)" u) true
    (u > 0.42 && u < 0.58)

let test_puf_same_die_zero_distance () =
  let a = Core.Puf.enroll (chip ~seed:3 ()) and b = Core.Puf.enroll (chip ~seed:3 ()) in
  Alcotest.(check (float 1e-12)) "same die, same responses" 0.0 (Core.Puf.uniqueness a b)

(* --------------------------------------------------------------- Key_mgmt *)

let test_lut_scheme_power_on () =
  let k = some_key () in
  let scheme = Core.Key_mgmt.provision_lut [ k ] in
  match Core.Key_mgmt.power_on scheme ~standard:"max-3GHz" () with
  | Ok c -> Alcotest.(check bool) "loads the key" true (Rfchain.Config.equal c (Core.Key.config k))
  | Error e -> Alcotest.failf "power-on failed: %s" e

let test_puf_scheme_power_on () =
  let k = some_key () in
  let scheme, user_keys = Core.Key_mgmt.provision_puf (chip ()) [ k ] in
  (match Core.Key_mgmt.power_on scheme ~user_keys ~standard:"max-3GHz" () with
  | Ok c -> Alcotest.(check bool) "recovers the key" true (Rfchain.Config.equal c (Core.Key.config k))
  | Error e -> Alcotest.failf "power-on failed: %s" e);
  (* Without user keys the chip must stay locked. *)
  match Core.Key_mgmt.power_on scheme ~standard:"max-3GHz" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "PUF scheme must fail without user keys"

let test_puf_user_key_masks_config () =
  let k = some_key () in
  let _, user_keys = Core.Key_mgmt.provision_puf (chip ()) [ k ] in
  match user_keys with
  | [ uk ] ->
    Alcotest.(check bool) "user key is not the configuration" true
      (uk.Core.Key_mgmt.key_bits <> Core.Key.bits k)
  | _ -> Alcotest.fail "one user key per configuration"

let test_puf_scheme_wrong_die () =
  (* The same user keys on a cloned (different) die decode to garbage. *)
  let k = some_key () in
  let _, user_keys = Core.Key_mgmt.provision_puf (chip ~seed:42 ()) [ k ] in
  let clone_scheme, _ = Core.Key_mgmt.provision_puf (chip ~seed:777 ()) [ k ] in
  match Core.Key_mgmt.power_on clone_scheme ~user_keys ~standard:"max-3GHz" () with
  | Ok c ->
    Alcotest.(check bool) "clone decodes a different word" false
      (Rfchain.Config.equal c (Core.Key.config k))
  | Error _ -> ()

(* ------------------------------------------------------------ Activation *)

let test_activation_roundtrip () =
  let kp = Core.Activation.design_house_keys () in
  let pub = Core.Activation.public_of kp in
  let uk = { Core.Key_mgmt.standard = "bluetooth"; key_bits = 0x1234_5678_9ABC_DEF0L } in
  let act = Core.Activation.issue kp ~chip_id:42L uk in
  Alcotest.(check bool) "valid signature verifies" true (Core.Activation.verify pub act);
  match Core.Activation.accept pub ~expected_chip_id:42L act with
  | Ok uk' -> Alcotest.(check int64) "key delivered" uk.Core.Key_mgmt.key_bits uk'.Core.Key_mgmt.key_bits
  | Error e -> Alcotest.failf "accept failed: %s" e

let test_activation_tamper_detected () =
  let kp = Core.Activation.design_house_keys () in
  let pub = Core.Activation.public_of kp in
  let uk = { Core.Key_mgmt.standard = "bluetooth"; key_bits = 99L } in
  let act = Core.Activation.issue kp ~chip_id:42L uk in
  let forged = { act with Core.Activation.user_key = { uk with key_bits = 100L } } in
  Alcotest.(check bool) "tampered key rejected" false (Core.Activation.verify pub forged);
  (* Transplanting an activation onto another die fails. *)
  match Core.Activation.accept pub ~expected_chip_id:43L act with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "activation must bind to the die"

let test_activation_cannot_forge () =
  let kp = Core.Activation.design_house_keys () in
  let pub = Core.Activation.public_of kp in
  let uk = { Core.Key_mgmt.standard = "bluetooth"; key_bits = 7L } in
  (* The foundry guesses signatures without the private key. *)
  let ok = ref false in
  for guess = 1 to 200 do
    let forged = { Core.Activation.chip_id = 42L; user_key = uk; signature = Int64.of_int guess } in
    if Core.Activation.verify pub forged then ok := true
  done;
  Alcotest.(check bool) "no guessed signature verifies" false !ok

(* -------------------------------------------------------------- Lock_eval *)

let test_lock_eval_shapes () =
  let c = chip () in
  let rx = Rfchain.Receiver.create c std in
  let golden = Calibration.Calibrate.quick rx in
  let eval = Core.Lock_eval.evaluate ~n_invalid:8 ~with_rx:false rx ~correct:golden () in
  Alcotest.(check int) "ensemble size" 8 (List.length eval.Core.Lock_eval.invalid);
  Alcotest.(check int) "correct key index" (-1) eval.Core.Lock_eval.correct.Core.Lock_eval.index;
  let summary = Core.Lock_eval.summarize eval in
  Alcotest.(check bool) "correct beats every invalid key" true
    (summary.Core.Lock_eval.margin_mod_db > 0.0)

let test_lock_eval_deterministic () =
  let rx = Rfchain.Receiver.create (chip ()) std in
  let golden = Calibration.Calibrate.quick rx in
  let e1 = Core.Lock_eval.evaluate ~n_invalid:4 ~with_rx:false rx ~correct:golden () in
  let e2 = Core.Lock_eval.evaluate ~n_invalid:4 ~with_rx:false rx ~correct:golden () in
  List.iter2
    (fun a b ->
      Alcotest.(check (float 1e-9)) "same seeded ensemble, same SNR" a.Core.Lock_eval.snr_mod_db
        b.Core.Lock_eval.snr_mod_db)
    e1.Core.Lock_eval.invalid e2.Core.Lock_eval.invalid

let test_open_loop_signature () =
  Alcotest.(check bool) "open loop + buffer" true
    (Core.Lock_eval.is_open_loop_passthrough
       { Rfchain.Config.nominal with fb_enable = false; comp_clock_enable = false });
  Alcotest.(check bool) "closed loop is not" false
    (Core.Lock_eval.is_open_loop_passthrough Rfchain.Config.nominal)

(* ------------------------------------------------------------ Threat_model *)

let test_threats () =
  let rx = Rfchain.Receiver.create (chip ()) std in
  (* Full calibration (with the SFDR term): threat scenarios check every
     specified performance, so the golden part must genuinely pass. *)
  let report = (Calibration.Calibrate.run ~passes:1 rx).Calibration.Calibrate.report in
  let key = Core.Key.make ~standard:std ~chip:(chip ()) report.Calibration.Calibrate.key in
  let clone = Core.Threat_model.cloning std ~golden_key:key in
  Alcotest.(check bool) "cloning defeated" false clone.Core.Threat_model.attacker_success;
  let over = Core.Threat_model.overproduction ~fabricated:100 ~provisioned:60 in
  Alcotest.(check bool) "overproduction defeated" false over.Core.Threat_model.attacker_success;
  let lut_r, puf_r = Core.Threat_model.recycling std ~seed:42 ~key in
  Alcotest.(check bool) "LUT recycling is the gap" true lut_r.Core.Threat_model.attacker_success;
  Alcotest.(check bool) "PUF recycling defeated" false puf_r.Core.Threat_model.attacker_success;
  let remark = Core.Threat_model.remarking std ~seed:990009 in
  Alcotest.(check bool) "remarking defeated" false remark.Core.Threat_model.attacker_success

(* ------------------------------------------------------------ Properties *)

let prop_puf_xor_roundtrip =
  QCheck.Test.make ~name:"PUF XOR provisioning roundtrips any word" ~count:100
    QCheck.(pair small_int int64)
    (fun (seed, bits) ->
      let c = chip ~seed ()
      and config = Rfchain.Config.of_bits bits in
      let key = Core.Key.make ~standard:std ~chip:c config in
      let scheme, user_keys = Core.Key_mgmt.provision_puf c [ key ] in
      match Core.Key_mgmt.power_on scheme ~user_keys ~standard:"max-3GHz" () with
      | Ok c' -> Rfchain.Config.equal c' config
      | Error _ -> false)

let prop_activation_binds_key_bits =
  QCheck.Test.make ~name:"activation verifies only the signed bits" ~count:25 QCheck.int64
    (fun bits ->
      let kp = Core.Activation.design_house_keys () in
      let pub = Core.Activation.public_of kp in
      let uk = { Core.Key_mgmt.standard = "s"; key_bits = bits } in
      let act = Core.Activation.issue kp ~chip_id:1L uk in
      Core.Activation.verify pub act
      && not
           (Core.Activation.verify pub
              { act with Core.Activation.user_key = { uk with key_bits = Int64.add bits 1L } }))

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "core"
    [
      ( "key",
        [
          Alcotest.test_case "identity" `Quick test_key_identity;
          Alcotest.test_case "unlock semantics" `Quick test_key_unlocks_semantics;
        ] );
      ( "lut",
        [
          Alcotest.test_case "select" `Quick test_lut_select;
          Alcotest.test_case "tamper response" `Quick test_lut_tamper;
        ] );
      ( "puf",
        [
          Alcotest.test_case "stability" `Quick test_puf_stability;
          Alcotest.test_case "uniqueness" `Quick test_puf_uniqueness;
          Alcotest.test_case "same die" `Quick test_puf_same_die_zero_distance;
        ] );
      ( "key management",
        [
          Alcotest.test_case "LUT power-on" `Quick test_lut_scheme_power_on;
          Alcotest.test_case "PUF power-on" `Quick test_puf_scheme_power_on;
          Alcotest.test_case "user key masks config" `Quick test_puf_user_key_masks_config;
          Alcotest.test_case "wrong die" `Quick test_puf_scheme_wrong_die;
        ] );
      ( "activation",
        [
          Alcotest.test_case "roundtrip" `Quick test_activation_roundtrip;
          Alcotest.test_case "tamper detection" `Quick test_activation_tamper_detected;
          Alcotest.test_case "forgery resistance" `Quick test_activation_cannot_forge;
        ] );
      ( "lock evaluation",
        [
          Alcotest.test_case "shapes" `Slow test_lock_eval_shapes;
          Alcotest.test_case "deterministic" `Slow test_lock_eval_deterministic;
          Alcotest.test_case "open-loop signature" `Quick test_open_loop_signature;
        ] );
      ("threat model", [ Alcotest.test_case "scenarios" `Slow test_threats ]);
      ("properties", qcheck [ prop_puf_xor_roundtrip; prop_activation_binds_key_bits ]);
    ]
