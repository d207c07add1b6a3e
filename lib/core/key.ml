type t = {
  standard : string;
  chip_seed : int;
  config : Rfchain.Config.t;
}

let make ~standard ~chip config =
  {
    standard = standard.Rfchain.Standards.name;
    chip_seed = Circuit.Process.seed chip;
    config;
  }

let config t = t.config
let bits t = Rfchain.Config.to_bits t.config
let key_width = Rfchain.Config.key_bits
let equal a b = a.standard = b.standard && a.chip_seed = b.chip_seed && Rfchain.Config.equal a.config b.config
let hamming_distance a b = Rfchain.Config.hamming_distance a.config b.config

let unlocks _t measurement standard =
  (Metrics.Spec.check standard measurement).Metrics.Spec.functional
