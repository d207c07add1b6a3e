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
let hamming_distance a b = Rfchain.Config.hamming_distance a.config b.config
