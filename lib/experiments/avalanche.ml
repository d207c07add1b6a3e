type distance_stat = {
  distance : int;
  mean_snr_db : float;
  max_snr_db : float;
  samples : int;
}

type bit_impact = {
  bit : int;
  field : string;
  snr_drop_db : float;
}

type t = {
  golden_snr_db : float;
  by_distance : distance_stat list;
  single_bit : bit_impact list;
}

let flip_bits rng config n =
  let word = ref (Rfchain.Config.to_bits config) in
  let flipped = Hashtbl.create 8 in
  let remaining = ref n in
  while !remaining > 0 do
    let pos = Sigkit.Rng.int_range rng 0 63 in
    if not (Hashtbl.mem flipped pos) then begin
      Hashtbl.add flipped pos ();
      word := Int64.logxor !word (Int64.shift_left 1L pos);
      decr remaining
    end
  done;
  Rfchain.Config.of_bits !word

(* Walk the layout: fields are contiguous, in declaration order. *)
let field_of_bit bit =
  let rec walk names offset =
    match names with
    | [] -> "?"
    | name :: rest ->
      let width = Rfchain.Config.field_width name in
      if bit < offset + width then name else walk rest (offset + width)
  in
  walk Rfchain.Config.field_names 0

let run ?(distances = [ 1; 2; 4; 8; 16; 32 ]) ?(samples_per_distance = 6) (ctx : Context.t) =
  let die = Engine.Request.die_of_receiver ctx.Context.rx in
  let standard = ctx.Context.standard in
  let snr_batch configs =
    Engine.Service.eval_batch
      (List.map
         (fun config -> Engine.Request.make ~die ~standard ~config Engine.Request.Snr_mod)
         configs)
    |> List.map (fun m -> m.Metrics.Spec.snr_mod_db)
  in
  let golden_snr_db = List.hd (snr_batch [ ctx.Context.golden ]) in
  let rng = Sigkit.Rng.create 1717 in
  (* Candidate generation consumes the RNG sequentially (unchanged);
     measurement is deferred to one engine batch per distance. *)
  let by_distance =
    List.map
      (fun distance ->
        let snrs =
          snr_batch
            (List.init samples_per_distance (fun _ ->
                 flip_bits rng ctx.Context.golden distance))
        in
        {
          distance;
          mean_snr_db = List.fold_left ( +. ) 0.0 snrs /. float_of_int samples_per_distance;
          max_snr_db = List.fold_left Float.max neg_infinity snrs;
          samples = samples_per_distance;
        })
      distances
  in
  let single_bit_snrs =
    snr_batch
      (List.init 64 (fun bit ->
           Rfchain.Config.of_bits
             (Int64.logxor (Rfchain.Config.to_bits ctx.Context.golden)
                (Int64.shift_left 1L bit))))
  in
  let single_bit =
    List.mapi
      (fun bit snr -> { bit; field = field_of_bit bit; snr_drop_db = golden_snr_db -. snr })
      single_bit_snrs
    |> List.sort (fun a b -> compare b.snr_drop_db a.snr_drop_db)
  in
  { golden_snr_db; by_distance; single_bit }

let checks (ctx : Context.t) t =
  let meets = Metrics.Spec.snr_meets ctx.Context.standard in
  let d8 = List.find_opt (fun s -> s.distance = 8) t.by_distance in
  let d32 = List.find_opt (fun s -> s.distance = 32) t.by_distance in
  let strong_bits = List.filter (fun b -> b.snr_drop_db > 10.0) t.single_bit in
  let strong_fields = List.sort_uniq compare (List.map (fun b -> b.field) strong_bits) in
  [
    (* Weak trim bits exist (the paper: a small fraction of key
       combinations can still perform), so near-distance worst cases
       are not guaranteed broken — but typical 8-bit corruption is. *)
    ( "8 flipped bits break the spec on average",
      match d8 with
      | Some s -> not (meets s.mean_snr_db)
      | None -> false );
    ( "heavily corrupted keys (32 bits) never work",
      match d32 with
      | Some s -> not (meets s.max_snr_db)
      | None -> false );
    ("several single bits are already fatal (> 10 dB)", List.length strong_bits >= 4);
    ( "strong bits include the mode/coarse-tuning fields",
      List.exists
        (fun f -> List.mem f strong_fields)
        [ "fb_enable"; "comp_clock_enable"; "gmin_enable"; "cap_coarse"; "loop_delay" ] );
  ]

let print ctx t =
  Printf.printf "# Key-distance avalanche\n";
  Printf.printf "golden key: %.1f dB\n" t.golden_snr_db;
  Printf.printf "# flipped bits   mean SNR   worst-case (max) SNR\n";
  List.iter
    (fun s -> Printf.printf "%12d   %8.1f   %8.1f\n" s.distance s.mean_snr_db s.max_snr_db)
    t.by_distance;
  Printf.printf "\nstrongest single key bits:\n";
  List.iteri
    (fun i b ->
      if i < 10 then
        Printf.printf "  bit %2d (%-18s): -%.1f dB\n" b.bit b.field b.snr_drop_db)
    t.single_bit;
  Context.print_checks (checks ctx t)
