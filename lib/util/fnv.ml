let fnv1a64 ?len s =
  let len = match len with Some l -> l | None -> String.length s in
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001b3L
  done;
  !h
