(* Unit and property tests for the DSP substrate. *)

let close ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_close ?(eps = 1e-9) msg expected actual =
  if not (close ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ------------------------------------------------------------------ Rng *)

let test_rng_determinism () =
  let a = Sigkit.Rng.create 1 and b = Sigkit.Rng.create 1 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sigkit.Rng.bits64 a) (Sigkit.Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Sigkit.Rng.create 1 and b = Sigkit.Rng.create 2 in
  Alcotest.(check bool) "different seeds" true (Sigkit.Rng.bits64 a <> Sigkit.Rng.bits64 b)

let test_rng_split_independent () =
  let root = Sigkit.Rng.create 7 in
  let a = Sigkit.Rng.split root "a" and b = Sigkit.Rng.split root "b" in
  Alcotest.(check bool) "split streams differ" true
    (Sigkit.Rng.bits64 a <> Sigkit.Rng.bits64 b);
  (* Splitting must not disturb the parent stream. *)
  let r1 = Sigkit.Rng.create 7 in
  let _ = Sigkit.Rng.split r1 "x" in
  let r2 = Sigkit.Rng.create 7 in
  Alcotest.(check int64) "parent undisturbed" (Sigkit.Rng.bits64 r2) (Sigkit.Rng.bits64 r1)

let test_rng_float_range () =
  let rng = Sigkit.Rng.create 3 in
  for _ = 1 to 10_000 do
    let x = Sigkit.Rng.float rng in
    if x < 0.0 || x >= 1.0 then Alcotest.failf "float out of [0,1): %g" x
  done

let test_rng_gaussian_moments () =
  let rng = Sigkit.Rng.create 11 in
  let n = 100_000 in
  let sum = ref 0.0 and sum2 = ref 0.0 in
  for _ = 1 to n do
    let x = Sigkit.Rng.gaussian rng in
    sum := !sum +. x;
    sum2 := !sum2 +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sum2 /. float_of_int n) -. (mean *. mean) in
  check_close ~eps:0.03 "gaussian mean" 0.0 mean;
  check_close ~eps:0.03 "gaussian variance" 1.0 var

(* Golden values captured from the seed generator: the Box-Muller spare
   moved from a [float option] to unboxed mutable fields, and bulk
   [gaussian_fill] feeds the fused modulator loop — neither may disturb
   the draw sequence, or every noise-dependent figure shifts. *)
let gaussian_golden =
  [|
    -1.1387307213579787; 0.30667265318413039; 1.1076895543133627;
    -0.10771681680941055; -1.1846331348709049; 0.14242453916414105;
    -0.2935150602538143; -0.84920439036721562;
  |]

let test_rng_gaussian_golden () =
  let rng = Sigkit.Rng.create 12345 in
  Array.iteri
    (fun i expected ->
      let got = Sigkit.Rng.gaussian rng in
      if got <> expected then
        Alcotest.failf "gaussian stream drifted at draw %d: expected %.17g, got %.17g" i
          expected got)
    gaussian_golden;
  let rng' = Sigkit.Rng.create 12345 in
  let buf = Array.make 8 0.0 in
  Sigkit.Rng.gaussian_fill rng' buf ~n:8;
  Array.iteri
    (fun i expected ->
      if buf.(i) <> expected then
        Alcotest.failf "gaussian_fill diverges from gaussian at %d" i)
    gaussian_golden

let test_rng_int_range () =
  let rng = Sigkit.Rng.create 5 in
  let seen = Array.make 6 false in
  for _ = 1 to 1000 do
    let v = Sigkit.Rng.int_range rng 2 7 in
    if v < 2 || v > 7 then Alcotest.failf "int_range out of bounds: %d" v;
    seen.(v - 2) <- true
  done;
  Alcotest.(check bool) "all values reached" true (Array.for_all Fun.id seen)

(* -------------------------------------------------------------- Decibel *)

let test_db_roundtrip () =
  List.iter
    (fun db ->
      check_close ~eps:1e-9 "db roundtrip" db
        (Sigkit.Decibel.db_of_power_ratio (Sigkit.Decibel.power_ratio_of_db db)))
    [ -120.0; -3.0; 0.0; 10.0; 96.0 ]

let test_dbm_amplitude () =
  (* 0 dBm into 50 ohm is a 316.2 mV peak sinusoid. *)
  check_close ~eps:1e-4 "0 dBm amplitude" 0.31623 (Sigkit.Decibel.amplitude_of_dbm 0.0);
  List.iter
    (fun dbm ->
      check_close ~eps:1e-9 "dbm roundtrip" dbm
        (Sigkit.Decibel.dbm_of_amplitude (Sigkit.Decibel.amplitude_of_dbm dbm)))
    [ -85.0; -25.0; 0.0; 10.0 ]

let test_db_negative_ratio () =
  Alcotest.(check bool) "log of 0 is -inf" true
    (Sigkit.Decibel.db_of_power_ratio 0.0 = neg_infinity);
  Alcotest.(check bool) "log of negative is -inf" true
    (Sigkit.Decibel.db_of_power_ratio (-1.0) = neg_infinity)

(* --------------------------------------------------------------- Window *)

let test_window_gains () =
  List.iter
    (fun (kind, gain) ->
      let w = Sigkit.Window.coefficients kind 4096 in
      let mean = Array.fold_left ( +. ) 0.0 w /. 4096.0 in
      check_close ~eps:1e-3 "coherent gain" gain mean)
    [
      (Sigkit.Window.Rectangular, 1.0);
      (Sigkit.Window.Hann, 0.5);
      (Sigkit.Window.Hamming, 0.54);
      (Sigkit.Window.Blackman_harris, 0.35875);
    ]

let test_window_apply_length () =
  let x = Array.make 128 1.0 in
  let y = Sigkit.Window.apply Sigkit.Window.Hann x in
  Alcotest.(check int) "length preserved" 128 (Array.length y);
  check_close ~eps:1e-12 "edge sample is zero" 0.0 y.(0)

(* ------------------------------------------------------------------ Fft *)

let test_fft_pow2 () =
  Alcotest.(check bool) "1024 is pow2" true (Sigkit.Fft.is_pow2 1024);
  Alcotest.(check bool) "1000 is not" false (Sigkit.Fft.is_pow2 1000);
  Alcotest.(check int) "next pow2" 1024 (Sigkit.Fft.next_pow2 1000)

let test_fft_impulse () =
  (* The transform of a unit impulse is flat. *)
  let n = 64 in
  let re = Array.make n 0.0 and im = Array.make n 0.0 in
  re.(0) <- 1.0;
  Sigkit.Fft.forward re im;
  Array.iter (fun v -> check_close ~eps:1e-12 "flat re" 1.0 v) re;
  Array.iter (fun v -> check_close ~eps:1e-12 "flat im" 0.0 v) im

let test_fft_roundtrip () =
  let rng = Sigkit.Rng.create 99 in
  let n = 256 in
  let x = Array.init n (fun _ -> Sigkit.Rng.gaussian rng) in
  let re, im = Sigkit.Fft.of_real x in
  Sigkit.Fft.forward re im;
  Sigkit.Fft.inverse re im;
  Array.iteri (fun i v -> check_close ~eps:1e-9 "roundtrip" x.(i) v) re

let test_fft_parseval () =
  let rng = Sigkit.Rng.create 17 in
  let n = 512 in
  let x = Array.init n (fun _ -> Sigkit.Rng.gaussian rng) in
  let time_energy = Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 x in
  let re, im = Sigkit.Fft.of_real x in
  Sigkit.Fft.forward re im;
  let freq_energy =
    Array.fold_left ( +. ) 0.0 (Sigkit.Fft.magnitude_squared re im) /. float_of_int n
  in
  check_close ~eps:1e-6 "parseval" time_energy freq_energy

let test_fft_sine_bin () =
  let n = 1024 and k = 37 in
  let x = Array.init n (fun i -> sin (2.0 *. Float.pi *. float_of_int (k * i) /. float_of_int n)) in
  let re, im = Sigkit.Fft.of_real x in
  Sigkit.Fft.forward re im;
  let mag = Sigkit.Fft.magnitude_squared re im in
  let peak = ref 0 in
  for i = 1 to (n / 2) - 1 do
    if mag.(i) > mag.(!peak) then peak := i
  done;
  Alcotest.(check int) "sine lands on its bin" k !peak

let test_fft_rejects_bad_length () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "length mismatch" true
    (raises (fun () -> Sigkit.Fft.forward (Array.make 8 0.0) (Array.make 4 0.0)));
  Alcotest.(check bool) "non-pow2" true
    (raises (fun () -> Sigkit.Fft.forward (Array.make 12 0.0) (Array.make 12 0.0)))

(* ------------------------------------------------------- Plan/Workspace *)

(* The pre-plan transform, kept verbatim as a reference oracle: in-place
   Cooley-Tukey with a per-butterfly twiddle recurrence.  The planned
   paths (complex and packed-real) are checked against it. *)
let reference_forward re im =
  let n = Array.length re in
  let j = ref 0 in
  for i = 0 to n - 2 do
    if i < !j then begin
      let tr = re.(i) in
      re.(i) <- re.(!j);
      re.(!j) <- tr;
      let ti = im.(i) in
      im.(i) <- im.(!j);
      im.(!j) <- ti
    end;
    let m = ref (n lsr 1) in
    while !m >= 1 && !j land !m <> 0 do
      j := !j lxor !m;
      m := !m lsr 1
    done;
    j := !j lor !m
  done;
  let len = ref 2 in
  while !len <= n do
    let half = !len / 2 in
    let angle = -2.0 *. Float.pi /. float_of_int !len in
    let wr = cos angle and wi = sin angle in
    let i = ref 0 in
    while !i < n do
      let cr = ref 1.0 and ci = ref 0.0 in
      for k = !i to !i + half - 1 do
        let tr = (!cr *. re.(k + half)) -. (!ci *. im.(k + half)) in
        let ti = (!cr *. im.(k + half)) +. (!ci *. re.(k + half)) in
        re.(k + half) <- re.(k) -. tr;
        im.(k + half) <- im.(k) -. ti;
        re.(k) <- re.(k) +. tr;
        im.(k) <- im.(k) +. ti;
        let nr = (!cr *. wr) -. (!ci *. wi) in
        ci := (!cr *. wi) +. (!ci *. wr);
        cr := nr
      done;
      i := !i + !len
    done;
    len := !len * 2
  done

let prop_real_fft_matches_reference =
  QCheck.Test.make ~name:"planned real FFT matches reference transform" ~count:60
    QCheck.(pair (int_range 4 13) small_int)
    (fun (log2n, seed) ->
      let n = 1 lsl log2n in
      let rng = Sigkit.Rng.create (7919 + seed) in
      let x = Array.init n (fun _ -> Sigkit.Rng.gaussian rng) in
      let rre = Array.copy x and rim = Array.make n 0.0 in
      reference_forward rre rim;
      let re, im = Sigkit.Fft.real_forward x in
      (* Relative to the spectrum scale: the recurrence itself drifts by
         a few ulps per stage, so compare against the largest bin. *)
      let scale = ref 1.0 in
      for k = 0 to n / 2 do
        scale := Float.max !scale (Float.max (Float.abs rre.(k)) (Float.abs rim.(k)))
      done;
      let tol = 1e-9 *. !scale in
      let ok = ref true in
      for k = 0 to n / 2 do
        if Float.abs (re.(k) -. rre.(k)) > tol || Float.abs (im.(k) -. rim.(k)) > tol
        then ok := false
      done;
      !ok)

let test_plan_memoized () =
  Alcotest.(check bool) "complex plan is memoized" true
    (Sigkit.Plan.get 256 == Sigkit.Plan.get 256);
  Alcotest.(check bool) "real plan is memoized" true
    (Sigkit.Plan.real_get 256 == Sigkit.Plan.real_get 256);
  let before = Sigkit.Plan.build_count () in
  ignore (Sigkit.Plan.get 256);
  ignore (Sigkit.Plan.real_get 256);
  Alcotest.(check int) "hits build nothing" before (Sigkit.Plan.build_count ())

let test_window_table_memoized () =
  let a = Sigkit.Window.table Sigkit.Window.Hann 512 in
  let b = Sigkit.Window.table Sigkit.Window.Hann 512 in
  Alcotest.(check bool) "same physical array" true (a == b);
  let c = Sigkit.Window.coefficients Sigkit.Window.Hann 512 in
  Alcotest.(check bool) "coefficients returns a private copy" true (not (c == a));
  Array.iteri (fun i v -> check_close ~eps:0.0 "copy equals table" a.(i) v) c

let test_workspace_reuse () =
  let w = Sigkit.Workspace.get () in
  let a = Sigkit.Workspace.arr w ~slot:15 ~len:64 in
  let b = Sigkit.Workspace.arr w ~slot:15 ~len:64 in
  Alcotest.(check bool) "same scratch array per (slot, len)" true (a == b);
  let c = Sigkit.Workspace.arr w ~slot:15 ~len:128 in
  Alcotest.(check bool) "length is part of the key" true (not (c == a))

(* Workspace.gaussian: tagged noise slots.  [stream label] is a fresh
   split, the way Circuit.Process.noise_stream hands out a die's
   per-run noise; slot 15 is the tests' own. *)
let stream label = Sigkit.Rng.split (Sigkit.Rng.create 11) label

let plain_fill rng len =
  let buf = Array.make len 0.0 in
  Sigkit.Rng.gaussian_fill rng buf ~n:len;
  buf

let same_floats a b = Array.length a = Array.length b && Array.for_all2 Float.equal a b

(* After the call the generator must sit where a plain fill leaves it. *)
let check_continuation msg a b =
  for _ = 1 to 3 do
    if not (Float.equal (Sigkit.Rng.gaussian a) (Sigkit.Rng.gaussian b)) then
      Alcotest.failf "%s: generator left at a different position" msg
  done

let test_workspace_gaussian_fresh () =
  let w = Sigkit.Workspace.get () in
  List.iter
    (fun len ->
      ignore (Sigkit.Workspace.arr w ~slot:15 ~len);
      let r = stream "fresh" and reference = stream "fresh" in
      let a = Sigkit.Workspace.gaussian w ~slot:15 ~len r in
      Alcotest.(check bool) (Printf.sprintf "equals gaussian_fill (len %d)" len) true
        (same_floats a (plain_fill reference len));
      check_continuation "after a fill" r reference;
      (* The repeat is a hit, odd lengths included: same values, and
         the generator again ends where the fill (and its spare) left
         it. *)
      let r = stream "fresh" and reference = stream "fresh" in
      let b = Sigkit.Workspace.gaussian w ~slot:15 ~len r in
      Alcotest.(check bool) "hit equals gaussian_fill" true (same_floats b (plain_fill reference len));
      check_continuation "after a hit" r reference)
    [ 1; 7; 64; 255 ]

let test_workspace_gaussian_hit () =
  let w = Sigkit.Workspace.get () in
  let len = 4096 in
  let a = Sigkit.Workspace.gaussian w ~slot:15 ~len (stream "hit") in
  let expected = Array.copy a in
  (* A sentinel the draw would overwrite: it survives a hit, which
     proves the repeat did not refill. *)
  a.(0) <- 42.0;
  let r = stream "hit" in
  let w0 = Gc.minor_words () in
  let b = Sigkit.Workspace.gaussian w ~slot:15 ~len r in
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "same physical array" true (a == b);
  Alcotest.(check (float 0.0)) "not refilled" 42.0 b.(0);
  if dw > 64.0 then Alcotest.failf "a hit allocated %.0f minor words" dw;
  (* [arr] hands the array out for writing: the tag is gone and the
     next call draws again. *)
  let c = Sigkit.Workspace.arr w ~slot:15 ~len in
  Alcotest.(check bool) "arr returns the same scratch" true (c == a);
  let d = Sigkit.Workspace.gaussian w ~slot:15 ~len (stream "hit") in
  Alcotest.(check bool) "refilled after arr" true (same_floats d expected)

let test_workspace_gaussian_alternating () =
  let w = Sigkit.Workspace.get () in
  let len = 33 in
  let expect label = plain_fill (stream label) len in
  let ea = expect "a" and eb = expect "b" in
  for round = 1 to 3 do
    List.iter
      (fun (label, e) ->
        let got = Sigkit.Workspace.gaussian w ~slot:15 ~len (stream label) in
        if not (same_floats got e) then
          Alcotest.failf "stream %s wrong in round %d" label round)
      [ ("a", ea); ("b", eb) ]
  done

let test_workspace_gaussian_spare () =
  let w = Sigkit.Workspace.get () in
  let len = 16 in
  (* [spared] holds a pending Box-Muller spare at counter position 2;
     [pristine] is at the same counter with no spare (one gaussian and
     two uniforms each advance the counter by two).  Their fills
     differ, so the first must not tag the slot for the second. *)
  let spared () =
    let r = stream "spare" in
    ignore (Sigkit.Rng.gaussian r);
    r
  in
  let pristine () =
    let r = stream "spare" in
    ignore (Sigkit.Rng.float r);
    ignore (Sigkit.Rng.float r);
    r
  in
  let got_spared = Array.copy (Sigkit.Workspace.gaussian w ~slot:15 ~len (spared ())) in
  Alcotest.(check bool) "spare fill equals gaussian_fill" true
    (same_floats got_spared (plain_fill (spared ()) len));
  let got = Sigkit.Workspace.gaussian w ~slot:15 ~len (pristine ()) in
  Alcotest.(check bool) "pristine stream at the same counter is not a hit" true
    (same_floats got (plain_fill (pristine ()) len));
  Alcotest.(check bool) "the two fills differ" false (same_floats got got_spared);
  (* And the other way round: the pristine fill is tagged, but a
     generator at its counter with a spare pending is not a hit. *)
  let again = Sigkit.Workspace.gaussian w ~slot:15 ~len (spared ()) in
  Alcotest.(check bool) "spared stream at a tagged counter is not a hit" true
    (same_floats again got_spared)

(* Two domains running the workspace-backed measurement path
   concurrently must reproduce the sequential results bit for bit:
   each domain owns a private DLS arena, so there is no sharing to
   race on. *)
let test_workspace_domains () =
  let fs = 1e6 and n = 2048 in
  let psd seed =
    let rng = Sigkit.Rng.create seed in
    let x = Array.init n (fun _ -> Sigkit.Rng.gaussian rng) in
    (Sigkit.Spectrum.periodogram ~fs x).Sigkit.Spectrum.power
  in
  let seq1 = psd 101 and seq2 = psd 202 in
  let d1 = Domain.spawn (fun () -> psd 101) in
  let d2 = Domain.spawn (fun () -> psd 202) in
  let con1 = Domain.join d1 and con2 = Domain.join d2 in
  Alcotest.(check bool) "domain 1 bit-identical to sequential" true (seq1 = con1);
  Alcotest.(check bool) "domain 2 bit-identical to sequential" true (seq2 = con2)

(* ------------------------------------------------------------- Spectrum *)

let test_spectrum_tone_power () =
  let fs = 1e6 and n = 4096 in
  let freq = Sigkit.Waveform.coherent_frequency ~freq:100e3 ~fs ~n in
  let x = Sigkit.Waveform.tone ~amplitude:1.0 ~freq ~fs n in
  let spec = Sigkit.Spectrum.periodogram ~fs x in
  let tone = Sigkit.Spectrum.tone_power spec ~freq in
  let total = Sigkit.Spectrum.band_power spec ~f_lo:0.0 ~f_hi:(fs /. 2.0) in
  Alcotest.(check bool) "tone carries nearly all power" true (tone /. total > 0.999)

let test_spectrum_band_split () =
  let fs = 1e6 and n = 4096 in
  let f1 = Sigkit.Waveform.coherent_frequency ~freq:100e3 ~fs ~n in
  let f2 = Sigkit.Waveform.coherent_frequency ~freq:400e3 ~fs ~n in
  let x =
    Sigkit.Waveform.add
      (Sigkit.Waveform.tone ~amplitude:1.0 ~freq:f1 ~fs n)
      (Sigkit.Waveform.tone ~amplitude:0.5 ~freq:f2 ~fs n)
  in
  let spec = Sigkit.Spectrum.periodogram ~fs x in
  let p1 = Sigkit.Spectrum.band_power spec ~f_lo:50e3 ~f_hi:150e3 in
  let p2 = Sigkit.Spectrum.band_power spec ~f_lo:350e3 ~f_hi:450e3 in
  check_close ~eps:0.05 "4:1 power split" 4.0 (p1 /. p2)

let test_spectrum_exclusion () =
  let fs = 1e6 and n = 4096 in
  let freq = Sigkit.Waveform.coherent_frequency ~freq:100e3 ~fs ~n in
  let x = Sigkit.Waveform.tone ~amplitude:1.0 ~freq ~fs n in
  let spec = Sigkit.Spectrum.periodogram ~fs x in
  let bins = Sigkit.Spectrum.tone_bins spec ~freq in
  let residual =
    Sigkit.Spectrum.band_power_excluding spec ~f_lo:0.0 ~f_hi:(fs /. 2.0) ~exclude:[ bins ]
  in
  let tone = Sigkit.Spectrum.tone_power spec ~freq in
  Alcotest.(check bool) "exclusion removes the tone" true (residual < tone /. 1000.0)

let test_spectrum_peak () =
  let fs = 1e6 and n = 1024 in
  let freq = Sigkit.Waveform.coherent_frequency ~freq:200e3 ~fs ~n in
  let x = Sigkit.Waveform.tone ~amplitude:1.0 ~freq ~fs n in
  let spec = Sigkit.Spectrum.periodogram ~fs x in
  let bin, _ = Sigkit.Spectrum.peak_in_band spec ~f_lo:0.0 ~f_hi:(fs /. 2.0) in
  check_close ~eps:(fs /. float_of_int n) "peak at tone" freq (Sigkit.Spectrum.freq_of_bin spec bin)

(* ------------------------------------------------------------- Waveform *)

let test_waveform_rms () =
  let fs = 1e6 and n = 1000 in
  let x = Sigkit.Waveform.tone ~amplitude:2.0 ~freq:10e3 ~fs n in
  check_close ~eps:0.01 "sine rms" (2.0 /. sqrt 2.0) (Sigkit.Waveform.rms x)

let test_waveform_two_tone () =
  let fs = 1e6 in
  let x = Sigkit.Waveform.two_tone_dbm ~p_dbm:0.0 ~f1:50e3 ~f2:60e3 ~fs 4096 in
  let single = Sigkit.Waveform.tone_dbm ~p_dbm:0.0 ~freq:50e3 ~fs 4096 in
  (* Two equal tones carry twice the power of one. *)
  let p x = Sigkit.Waveform.rms x ** 2.0 in
  check_close ~eps:0.05 "two-tone power" 2.0 (p x /. p single)

(* The sample formulas every stimulus was synthesised with before the
   renderer existed, kept here verbatim as the oracle. *)
let reference_tone ~amplitude ~freq ~fs ?(phase = 0.0) n =
  let w = 2.0 *. Float.pi *. freq /. fs in
  let out = Array.make n 0.0 in
  for i = 0 to n - 1 do
    out.(i) <- amplitude *. sin ((w *. float_of_int i) +. phase)
  done;
  out

let reference_two_tone_dbm ~p_dbm ~f1 ~f2 ~fs n =
  let a = Sigkit.Decibel.amplitude_of_dbm p_dbm in
  let t1 = reference_tone ~amplitude:a ~freq:f1 ~fs n in
  let t2 = reference_tone ~amplitude:a ~freq:f2 ~fs ~phase:(Float.pi /. 3.0) n in
  Array.mapi (fun i x -> x +. t2.(i)) t1

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let test_waveform_render_rotated () =
  let fs = 9.6e9 and n = 1537 in
  let p_dbm = -25.0 and freq = 2.40e9 +. 7.0e6 and f2 = 2.41e9 in
  let cases =
    [
      ( "tone",
        Sigkit.Waveform.dbm_tone ~p_dbm ~freq ~fs ~phase:0.3 (),
        reference_tone ~amplitude:(Sigkit.Decibel.amplitude_of_dbm p_dbm) ~freq ~fs ~phase:0.3 n );
      ( "two-tone",
        Sigkit.Waveform.dbm_two_tone ~p_dbm ~f1:freq ~f2 ~fs,
        reference_two_tone_dbm ~p_dbm ~f1:freq ~f2 ~fs n );
    ]
  in
  List.iter
    (fun (what, stimulus, record) ->
      Alcotest.(check bool) (what ^ ": render = the reference record") true
        (same_bits record (Sigkit.Waveform.render stimulus n));
      (* Odd rotations, into buffers shorter and several records longer
         than the period, wrapping more than once. *)
      List.iter
        (fun (rot, len) ->
          let dst = Array.make len nan in
          Sigkit.Waveform.render_into stimulus ~n ~rot dst;
          let expected = Array.init len (fun i -> record.((i + rot) mod n)) in
          if not (same_bits expected dst) then
            Alcotest.failf "%s: render_into ~rot:%d into %d cells differs" what rot len)
        [ (1, 7); (3, n); (511, n + 1024); (n - 1, (3 * n) + 5); (777, 1) ])
    cases;
  Alcotest.(check bool) "tone_dbm is render of dbm_tone" true
    (same_bits
       (Sigkit.Waveform.tone_dbm ~p_dbm ~freq ~fs n)
       (reference_tone ~amplitude:(Sigkit.Decibel.amplitude_of_dbm p_dbm) ~freq ~fs n));
  Alcotest.(check bool) "two_tone_dbm is render of dbm_two_tone" true
    (same_bits
       (Sigkit.Waveform.two_tone_dbm ~p_dbm ~f1:freq ~f2 ~fs n)
       (reference_two_tone_dbm ~p_dbm ~f1:freq ~f2 ~fs n));
  Alcotest.check_raises "rotation outside the record"
    (Invalid_argument "Waveform.render_into: rotation outside the record") (fun () ->
      Sigkit.Waveform.render_into (let _, s, _ = List.hd cases in s) ~n ~rot:n (Array.make 4 0.0))

let test_coherent_frequency () =
  let f = Sigkit.Waveform.coherent_frequency ~freq:100e3 ~fs:1e6 ~n:1024 in
  let k = f *. 1024.0 /. 1e6 in
  check_close ~eps:1e-9 "integer bin" (Float.round k) k;
  Alcotest.(check bool) "odd bin" true (int_of_float k mod 2 = 1)

(* ------------------------------------------------------------ Properties *)

let prop_fft_linearity =
  QCheck.Test.make ~name:"fft is linear" ~count:50
    QCheck.(pair (list_of_size (Gen.return 64) (float_range (-10.) 10.)) (float_range (-5.) 5.))
    (fun (xs, k) ->
      let x = Array.of_list xs in
      let n = Array.length x in
      n = 64
      && begin
           let re1, im1 = Sigkit.Fft.of_real x in
           Sigkit.Fft.forward re1 im1;
           let scaled = Array.map (fun v -> k *. v) x in
           let re2, im2 = Sigkit.Fft.of_real scaled in
           Sigkit.Fft.forward re2 im2;
           Array.for_all2 (fun a b -> Float.abs ((k *. a) -. b) < 1e-6 *. (1.0 +. Float.abs b)) re1 re2
         end)

let prop_db_monotonic =
  QCheck.Test.make ~name:"db_of_power_ratio is monotonic" ~count:200
    QCheck.(pair (float_range 1e-6 1e6) (float_range 1e-6 1e6))
    (fun (a, b) ->
      let da = Sigkit.Decibel.db_of_power_ratio a and db = Sigkit.Decibel.db_of_power_ratio b in
      (a < b && da < db) || (a > b && da > db) || a = b)

let prop_rng_int_range_bounds =
  QCheck.Test.make ~name:"int_range stays in bounds" ~count:500
    QCheck.(pair small_int (pair (int_range (-100) 100) (int_range 0 100)))
    (fun (seed, (lo, span)) ->
      let rng = Sigkit.Rng.create seed in
      let v = Sigkit.Rng.int_range rng lo (lo + span) in
      v >= lo && v <= lo + span)

(* The inlined gaussian_fill loop (unboxed bytes-cell state) must draw
   exactly the sequence repeated [gaussian] calls produce, for every
   parity of [n] and every spare-cache state at entry — and leave the
   generator positioned so the streams stay identical afterwards. *)
let prop_gaussian_fill_identity =
  QCheck.Test.make ~name:"gaussian_fill = n x gaussian (any n, any spare state)" ~count:200
    QCheck.(pair small_int (pair (int_range 0 65) (int_range 0 3)))
    (fun (seed, (n, pre_draws)) ->
      let a = Sigkit.Rng.create seed and b = Sigkit.Rng.create seed in
      for _ = 1 to pre_draws do
        ignore (Sigkit.Rng.gaussian a);
        ignore (Sigkit.Rng.gaussian b)
      done;
      let buf = Array.make (max 1 n) 0.0 in
      Sigkit.Rng.gaussian_fill a buf ~n;
      let same = ref true in
      for i = 0 to n - 1 do
        if buf.(i) <> Sigkit.Rng.gaussian b then same := false
      done;
      (* Continuation: the spare hand-off at the end of the fill. *)
      for _ = 1 to 3 do
        if Sigkit.Rng.gaussian a <> Sigkit.Rng.gaussian b then same := false
      done;
      !same)

let test_gaussian_fill_no_alloc () =
  let rng = Sigkit.Rng.create 7 in
  let buf = Array.make 512 0.0 in
  Sigkit.Rng.gaussian_fill rng buf ~n:512;
  let w0 = Gc.minor_words () in
  Sigkit.Rng.gaussian_fill rng buf ~n:512;
  let dw = Gc.minor_words () -. w0 in
  (* The whole point of the bytes-cell state: a batch draw allocates
     nothing (small slack for the Gc.minor_words probe itself). *)
  if dw > 64.0 then Alcotest.failf "gaussian_fill allocated %.0f minor words" dw

let prop_window_bounded =
  QCheck.Test.make ~name:"window coefficients bounded" ~count:50
    QCheck.(int_range 4 512)
    (fun n ->
      List.for_all
        (fun kind ->
          Array.for_all
            (fun w -> w >= -0.01 && w <= 1.01)
            (Sigkit.Window.coefficients kind n))
        [ Sigkit.Window.Rectangular; Sigkit.Window.Hann; Sigkit.Window.Hamming;
          Sigkit.Window.Blackman_harris ])

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "sigkit"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "gaussian golden stream" `Quick test_rng_gaussian_golden;
          Alcotest.test_case "gaussian_fill alloc-free" `Quick test_gaussian_fill_no_alloc;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
        ] );
      ( "decibel",
        [
          Alcotest.test_case "db roundtrip" `Quick test_db_roundtrip;
          Alcotest.test_case "dbm amplitude" `Quick test_dbm_amplitude;
          Alcotest.test_case "degenerate ratios" `Quick test_db_negative_ratio;
        ] );
      ( "window",
        [
          Alcotest.test_case "coherent gains" `Quick test_window_gains;
          Alcotest.test_case "apply" `Quick test_window_apply_length;
        ] );
      ( "fft",
        [
          Alcotest.test_case "pow2 helpers" `Quick test_fft_pow2;
          Alcotest.test_case "impulse" `Quick test_fft_impulse;
          Alcotest.test_case "roundtrip" `Quick test_fft_roundtrip;
          Alcotest.test_case "parseval" `Quick test_fft_parseval;
          Alcotest.test_case "sine bin" `Quick test_fft_sine_bin;
          Alcotest.test_case "bad input" `Quick test_fft_rejects_bad_length;
        ] );
      ( "plan",
        [
          Alcotest.test_case "plan memoization" `Quick test_plan_memoized;
          Alcotest.test_case "window table memoization" `Quick test_window_table_memoized;
          Alcotest.test_case "workspace reuse" `Quick test_workspace_reuse;
          Alcotest.test_case "workspace across domains" `Quick test_workspace_domains;
          Alcotest.test_case "workspace gaussian fresh and odd" `Quick test_workspace_gaussian_fresh;
          Alcotest.test_case "workspace gaussian hit" `Quick test_workspace_gaussian_hit;
          Alcotest.test_case "workspace gaussian alternating" `Quick
            test_workspace_gaussian_alternating;
          Alcotest.test_case "workspace gaussian spare" `Quick test_workspace_gaussian_spare;
        ] );
      ( "spectrum",
        [
          Alcotest.test_case "tone power" `Quick test_spectrum_tone_power;
          Alcotest.test_case "band split" `Quick test_spectrum_band_split;
          Alcotest.test_case "exclusion" `Quick test_spectrum_exclusion;
          Alcotest.test_case "peak search" `Quick test_spectrum_peak;
        ] );
      ( "waveform",
        [
          Alcotest.test_case "rms" `Quick test_waveform_rms;
          Alcotest.test_case "two-tone power" `Quick test_waveform_two_tone;
          Alcotest.test_case "rotated render = reference formulas" `Quick
            test_waveform_render_rotated;
          Alcotest.test_case "coherent frequency" `Quick test_coherent_frequency;
        ] );
      ( "properties",
        qcheck
          [ prop_fft_linearity; prop_real_fft_matches_reference; prop_db_monotonic;
            prop_rng_int_range_bounds; prop_window_bounded;
            prop_gaussian_fill_identity ] );
    ]
