(** Listen/connect address syntax shared by [--metrics-addr] and
    [folearn_cli pulse]: a Unix-domain socket path or a TCP endpoint.

    Accepted spellings: [unix:/path/to.sock], [host:port], [:port] and
    bare [port] (both meaning 127.0.0.1). *)

type t = Unix_sock of string | Tcp of string * int

val parse : string -> (t, string) result

val to_string : t -> string
(** Round-trips with {!parse}. *)

val sockaddr : t -> (Unix.sockaddr, string) result
(** Resolve to a bindable/connectable [Unix.sockaddr]; resolves TCP
    host names via [gethostbyname]. *)

val listen : t -> (Unix.file_descr * t, string) result
(** Bind a listening stream socket (backlog 64) on the address,
    unlinking a stale Unix socket file first, with [SO_REUSEADDR] on
    TCP.  Returns the socket and the bound address: the kernel's port
    when asked for port 0, otherwise the address as given. *)
