let is_pow2 n = n > 0 && n land (n - 1) = 0

let next_pow2 n =
  let rec grow p = if p >= n then p else grow (p * 2) in
  grow 1

let transforms = Telemetry.Counter.make "fft.transforms"
let points = Telemetry.Histogram.make "fft.points"

let check re im =
  let n = Array.length re in
  if Array.length im <> n then invalid_arg "Fft: re/im length mismatch";
  if not (is_pow2 n) then invalid_arg "Fft: length must be a power of two";
  n

let observe n =
  Telemetry.Counter.incr transforms;
  Telemetry.Histogram.observe points (float_of_int n)

let forward re im =
  let n = check re im in
  observe n;
  Telemetry.Span.with_ ~name:"fft.transform" (fun () -> Plan.exec (Plan.get n) re im)

let magnitude_squared re im =
  Array.init (Array.length re) (fun i -> (re.(i) *. re.(i)) +. (im.(i) *. im.(i)))
