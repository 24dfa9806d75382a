(** Lemma 3 of the paper (a consequence of the Vitali Covering Lemma).

    Given a set [X ⊆ V(G)] and a radius [r >= 1], produce [Z ⊆ X] and
    [R = 3^i * r] for some [0 <= i <= |X| - 1] such that
    - the [R]-balls around distinct members of [Z] are pairwise disjoint, and
    - [N_r(X) ⊆ N_R(Z)]. *)

type cover = {
  centers : Graph.vertex list;  (** the set [Z ⊆ X], sorted *)
  radius : int;  (** the blown-up radius [R = 3^i * r] *)
  rounds : int;  (** the index [i], i.e. how often the radius was tripled *)
}

val cover : ?budget:Guard.Budget.t -> Graph.t -> r:int -> Graph.vertex list -> cover
(** Runs the inductive construction from the proof of Lemma 3: start with
    [Z_0 = X]; while some two [R_i]-balls intersect, take an inclusion-wise
    maximal subset with pairwise disjoint balls and triple the radius.
    @raise Invalid_argument if [r < 1] or [X] is empty. *)

val check : Graph.t -> r:int -> Graph.vertex list -> cover -> bool
(** Verifies both conclusions of Lemma 3 for a claimed cover (used by the
    property tests). *)
