(* Exporters over Registry snapshots.  All output is derived from the
   sorted snapshot, so files written at the end of a run are
   byte-identical regardless of [--jobs] fan-out. *)

(* RFC 4180 CSV field: quote when the field contains a separator, a
   quote, or a line break; embedded quotes double.  Shared with the
   Trace CSV exporter. *)
let csv_field s =
  let needs =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s
  in
  if not needs then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string b "\"\"" else Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b
  end

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* "name" or "name{k=v,k2=v2}" — no dots, so the perf gate of
   bench/run.exe sees the whole key as one gateable leaf. *)
let key ?(suffix = "") (s : Registry.sample) =
  match s.s_labels with
  | [] -> s.s_name ^ suffix
  | labels ->
      Printf.sprintf "%s%s{%s}" s.s_name suffix
        (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels))

(* Flat (key, value) pairs: one per counter/gauge series, two
   (_count/_sum) per histogram series.  Sorted by key. *)
let flat_pairs samples =
  List.concat_map
    (fun (s : Registry.sample) ->
      match s.s_kind with
      | Registry.Counter | Registry.Gauge -> [ (key s, s.s_value) ]
      | Registry.Histogram ->
          [ (key ~suffix:"_count" s, s.s_count); (key ~suffix:"_sum" s, s.s_value) ])
    samples
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let json samples =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  let pairs = flat_pairs samples in
  List.iteri
    (fun i (k, v) ->
      Buffer.add_string b
        (Printf.sprintf "  \"%s\": %d%s\n" (json_escape k) v
           (if i < List.length pairs - 1 then "," else "")))
    pairs;
  Buffer.add_string b "}\n";
  Buffer.contents b

(* Prometheus text exposition. *)

let prom_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let prom_labels ?extra labels =
  let labels = match extra with None -> labels | Some kv -> labels @ [ kv ] in
  match labels with
  | [] -> ""
  | labels ->
      Printf.sprintf "{%s}"
        (String.concat ","
           (List.map
              (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_escape v))
              labels))

let prometheus samples =
  let b = Buffer.create 1024 in
  let last = ref "" in
  List.iter
    (fun (s : Registry.sample) ->
      if s.s_name <> !last then begin
        last := s.s_name;
        if s.s_help <> "" then
          Buffer.add_string b
            (Printf.sprintf "# HELP %s %s\n" s.s_name (prom_escape s.s_help));
        Buffer.add_string b
          (Printf.sprintf "# TYPE %s %s\n" s.s_name
             (match s.s_kind with
             | Registry.Counter -> "counter"
             | Registry.Gauge -> "gauge"
             | Registry.Histogram -> "histogram"))
      end;
      match s.s_kind with
      | Registry.Counter | Registry.Gauge ->
          Buffer.add_string b
            (Printf.sprintf "%s%s %d\n" s.s_name (prom_labels s.s_labels)
               s.s_value)
      | Registry.Histogram ->
          (* cumulative buckets: bucket k covers v <= 2^(k+1)-1 *)
          let cum = ref 0 in
          List.iter
            (fun (k, n) ->
              cum := !cum + n;
              let le = string_of_int ((1 lsl (k + 1)) - 1) in
              Buffer.add_string b
                (Printf.sprintf "%s_bucket%s %d\n" s.s_name
                   (prom_labels ~extra:("le", le) s.s_labels)
                   !cum))
            s.s_buckets;
          Buffer.add_string b
            (Printf.sprintf "%s_bucket%s %d\n" s.s_name
               (prom_labels ~extra:("le", "+Inf") s.s_labels)
               s.s_count);
          Buffer.add_string b
            (Printf.sprintf "%s_sum%s %d\n" s.s_name (prom_labels s.s_labels)
               s.s_value);
          Buffer.add_string b
            (Printf.sprintf "%s_count%s %d\n" s.s_name (prom_labels s.s_labels)
               s.s_count))
    samples;
  Buffer.contents b

let to_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

(* Extension-driven choice used by --metrics-out: .prom/.txt write
   Prometheus exposition, anything else the flat JSON snapshot. *)
let write ~path samples =
  let prom =
    Filename.check_suffix path ".prom" || Filename.check_suffix path ".txt"
  in
  to_file path (if prom then prometheus samples else json samples)
