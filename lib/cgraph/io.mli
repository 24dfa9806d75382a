(** Plain-text serialisation of coloured graphs.

    Line-oriented format (order of lines is irrelevant except that [n]
    must come first; [#] starts a comment):

    {v
      n 6              # number of vertices
      e 0 1            # an undirected edge
      e 1 2
      c Red 0 3        # a colour class
      c Blue 5
    v} *)

exception Format_error of string
(** Raised with a message naming the offending line: an unknown
    directive, a malformed integer, an order out of range, a self-loop
    or a vertex outside [0, n). *)

val to_string : Graph.t -> string
(** Serialise (vertices implicit, edges and colours sorted). *)

val of_string : string -> Graph.t
(** Parse.  @raise Format_error on malformed input; no other
    exception, short of [Out_of_memory] for an order too large to
    allocate. *)

val save : string -> Graph.t -> unit
(** Write to a file. *)

val load : string -> Graph.t
(** Read from a file.
    @raise Format_error on malformed content.
    @raise Sys_error if the file cannot be read. *)
