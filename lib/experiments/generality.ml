type t = {
  calibrated : Afe.Afe_calibrate.report;
  random_keys : (Afe.Afe_config.t * Afe.Afe_chain.measurement * bool) list;
  transfer_in_spec : bool;
  invalid_in_spec : int;
}

let run ?(n_invalid = 40) ?(seed = 9001) () =
  let chip = Circuit.Process.fabricate ~seed () in
  let afe = Afe.Afe_chain.create chip in
  let calibrated = Afe.Afe_calibrate.run afe in
  let rng = Sigkit.Rng.create (seed + 1) in
  let spec = Afe.Afe_chain.default_spec in
  let random_keys =
    List.init n_invalid (fun _ ->
        let key = Afe.Afe_config.random rng in
        let m = Afe.Afe_chain.measure afe key in
        (key, m, Afe.Afe_chain.in_spec spec m))
  in
  let sibling = Afe.Afe_chain.create (Circuit.Process.fabricate ~seed:(seed + 7) ()) in
  let transfer_in_spec =
    Afe.Afe_chain.in_spec spec (Afe.Afe_chain.measure sibling calibrated.Afe.Afe_calibrate.key)
  in
  {
    calibrated;
    random_keys;
    transfer_in_spec;
    invalid_in_spec = List.length (List.filter (fun (_, _, ok) -> ok) random_keys);
  }

let checks t =
  [
    ("AFE calibration reaches its specification", t.calibrated.Afe.Afe_calibrate.in_spec);
    ( "random 24-bit keys essentially never work (< 10%)",
      t.invalid_in_spec * 10 < List.length t.random_keys );
    ("the key does not transfer to a sibling die", not t.transfer_in_spec);
  ]

let print t =
  let m = t.calibrated.Afe.Afe_calibrate.measurement in
  Printf.printf "# Generality: fabric locking on the programmable baseband AFE (24-bit word)\n";
  Printf.printf
    "calibrated: gain %.1f dB, cutoff error %.0f kHz, offset %.2f mV, THD %.0f dB (%d bench runs) -> %s\n"
    m.Afe.Afe_chain.gain_db
    (m.Afe.Afe_chain.cutoff_error_hz /. 1e3)
    (m.Afe.Afe_chain.offset_v *. 1e3)
    m.Afe.Afe_chain.thd_db t.calibrated.Afe.Afe_calibrate.bench_runs
    (if t.calibrated.Afe.Afe_calibrate.in_spec then "in spec" else "OUT OF SPEC");
  Printf.printf "random keys in spec: %d/%d\n" t.invalid_in_spec (List.length t.random_keys);
  Printf.printf "key on a sibling die: %s\n"
    (if t.transfer_in_spec then "works (transfer!)" else "fails (per-die key)");
  (* A few sample wrong keys with their broken performances. *)
  List.iteri
    (fun i (key, m, ok) ->
      if i < 5 then
        Printf.printf
          "  key 0x%06x: gain %6.1f dB, cutoff err %7.0f kHz, offset %6.2f mV, THD %5.1f dB -> %s\n"
          (Afe.Afe_config.to_bits key) m.Afe.Afe_chain.gain_db
          (m.Afe.Afe_chain.cutoff_error_hz /. 1e3)
          (m.Afe.Afe_chain.offset_v *. 1e3)
          m.Afe.Afe_chain.thd_db
          (if ok then "in spec" else "broken"))
    t.random_keys;
  Context.print_checks (checks t)
