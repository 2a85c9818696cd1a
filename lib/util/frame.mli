(** The one frame codec for every durable record and every message.

    A frame is

    {v [length: 8 lowercase hex][SipHash-2-4 of payload: 16 lowercase hex][payload] v}

    The write-ahead log, the checkpoint image, the replication stream and
    the TCP wire all use it, each under its own key.  The checksum gives
    {e integrity} against torn, corrupt or desynchronized bytes (the §4.2
    keyed-integrity primitive), not secrecy. *)

type key = Siphash.key

val key : string -> key
(** The checksum key of a named log or stream: [Siphash.key_of_string]
    of ["oasis.wal:" ^ name]. *)

val header : int
(** Bytes before the payload: 24. *)

val encode : key -> string -> string
(** One frame around the payload. *)

val encode_all : key -> string list -> string
(** The frames of the payloads, concatenated in order. *)

type decoded =
  | Payload of string * int  (** the payload and the offset just past its frame *)
  | Short of int
      (** incomplete: the frame's total size once its length field has
          arrived, else {!header} *)
  | Bad  (** a non-hex (or uppercase) length, or a checksum mismatch *)

val decode_at : key -> string -> off:int -> limit:int -> decoded
(** Decode the frame starting at [off], looking only at the bytes before
    [limit] ([off <= limit <= String.length s]).  Total: never raises. *)

val scan : key -> string -> string list
(** The payloads of the longest valid prefix of frames: the recovery scan,
    which stops at the first torn or corrupt frame.  Total. *)

val pack : string list -> string
(** The RPC envelope: each field as an 8-hex length then its bytes
    (8-bit clean). *)

val unpack : string -> string list option
(** Inverse of {!pack}; [None] unless the fields cover the string exactly. *)
