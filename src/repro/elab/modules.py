"""Module-language elaboration: structures, signatures, functors.

Functor semantics: the body is elaborated once at definition time against
a formal parameter instance (early error detection), and re-elaborated at
each application against the matched actual argument, which makes every
application generative (fresh stamps) exactly as the Definition demands.
"""

from __future__ import annotations

from repro.elab.core import Elaborator, register_dec_handler
from repro.elab.errors import ElabError
from repro.elab.realize import (
    Realization,
    fresh_abstract_realization,
    realize_env,
    realize_type,
)
from repro.elab.sigmatch import _flex_tycons, match_structure
from repro.lang import ast
from repro.semant.env import Env, Functor, Sig, Structure, ValueBinding
from repro.semant.types import (
    AbstractTycon,
    BoundVar,
    ConType,
    Constructor,
    DatatypeTycon,
    FunType,
    PolyType,
    RecordType,
    TyVar,
    TypeFun,
    Type,
    prune,
)

# ---------------------------------------------------------------------------
# Structure expressions
# ---------------------------------------------------------------------------


def elab_strexp(el: Elaborator, strexp: ast.StrExp,
                name_hint: str = "?") -> Structure:
    if isinstance(strexp, ast.StructStrExp):
        frame = el.push_frame()
        for dec in strexp.decs:
            el.elab_dec(dec)
        el.pop_frame()
        env = Env()
        env.absorb(frame)
        return Structure(el.fresh_stamp(), name_hint, env)
    if isinstance(strexp, ast.VarStrExp):
        struct = el.env.lookup_structure_path(strexp.path)
        if struct is None:
            el.error(f"unbound structure {ast.path_str(strexp.path)}",
                     strexp.line)
        return struct
    if isinstance(strexp, ast.AppStrExp):
        functor = _lookup_functor_path(el.env, strexp.functor_path)
        if functor is None:
            el.error(
                f"unbound functor {ast.path_str(strexp.functor_path)}",
                strexp.line)
        if functor.takes_functor():
            # Higher-order application: the argument is a functor name.
            if not isinstance(strexp.arg, ast.VarStrExp):
                el.error(
                    f"functor {ast.path_str(strexp.functor_path)} takes a "
                    f"functor argument", strexp.line)
            actual = _lookup_functor_path(el.env, strexp.arg.path)
            if actual is None:
                el.error(
                    f"unbound functor {ast.path_str(strexp.arg.path)}",
                    strexp.line)
            strexp.info = "functor"
            return apply_functor_to_functor(el, functor, actual,
                                            strexp.line, name_hint)
        # Reset, not just left unset: a build may re-elaborate the same
        # parsed declarations against changed imports.
        strexp.info = None
        arg = elab_strexp(el, strexp.arg, name_hint=f"{name_hint}$arg")
        return apply_functor(el, functor, arg, strexp.line,
                             name_hint=name_hint)
    if isinstance(strexp, ast.LetStrExp):
        el.push_frame()
        for dec in strexp.decs:
            el.elab_dec(dec)
        result = elab_strexp(el, strexp.body, name_hint)
        el.pop_frame()
        return result
    if isinstance(strexp, ast.ConstraintStrExp):
        body = elab_strexp(el, strexp.body, name_hint)
        sig = elab_sigexp(el, strexp.sig)
        return match_structure(el, body, sig, strexp.opaque, strexp.line)
    raise AssertionError(f"unknown structure expression {strexp!r}")


def _lookup_functor_path(env: Env, path: ast.Path):
    if len(path) == 1:
        return env.lookup_functor(path[0])
    struct = env.lookup_structure_path(path[:-1])
    if struct is None:
        return None
    return struct.env.functors.get(path[-1])


def apply_functor(el: Elaborator, functor: Functor, arg: Structure,
                  line: int, name_hint: str = "?") -> Structure:
    """Apply a functor: match the argument, re-elaborate the body.

    The result signature (if any) is kept as AST on the functor and
    elaborated here, with the matched parameter in scope -- this is what
    makes dependent result signatures work."""
    if functor.takes_functor():
        el.error(
            f"functor {functor.name} expects a functor argument, got a "
            f"structure", line)
    matched = match_structure(el, arg, functor.param_sig, opaque=False,
                              line=line)
    saved_env = el.env
    el.env = functor.def_env.child()
    el.env.bind_structure(functor.param_name, matched)
    try:
        if functor.is_formal():
            # A formal (abstract) functor from a higher-order parameter
            # spec: each application yields a fresh, generative instance
            # of the declared result signature (which may mention the
            # parameter we just bound).
            inst = elab_sigexp(el, functor.result_sig)
            return Structure(el.fresh_stamp(), name_hint, inst.env)
        result = elab_strexp(el, functor.body, name_hint)
        if functor.result_sig is not None:
            result_sig = elab_sigexp(el, functor.result_sig)
            result = match_structure(el, result, result_sig,
                                     functor.opaque, line)
    finally:
        el.env = saved_env
    return result


def apply_functor_to_functor(el: Elaborator, functor: Functor,
                             actual: Functor, line: int,
                             name_hint: str = "?") -> Structure:
    """Apply a higher-order functor to a functor argument.

    The argument's conformance to the spec is checked *semantically*: the
    actual functor is applied to a formal instance of the spec's
    parameter signature, and its result must match the spec's result
    signature.  (With re-elaboration this is a real check, not an
    approximation.)
    """
    inner_name, inner_sig_ast, inner_result_ast = functor.fct_param
    saved_env = el.env
    el.env = functor.def_env.child()
    try:
        inner_sig = elab_sigexp(el, inner_sig_ast)
        formal_arg = Structure(el.fresh_stamp(), inner_name, inner_sig.env)
        trial = apply_functor(el, actual, formal_arg, line)
        el.env.bind_structure(inner_name, formal_arg)
        spec_result = elab_sigexp(el, inner_result_ast)
        match_structure(el, trial, spec_result, opaque=False, line=line)
    finally:
        el.env = saved_env

    saved_env = el.env
    el.env = functor.def_env.child()
    el.env.bind_functor(functor.param_name, actual)
    try:
        result = elab_strexp(el, functor.body, name_hint)
        if functor.result_sig is not None:
            result_sig = elab_sigexp(el, functor.result_sig)
            result = match_structure(el, result, result_sig,
                                     functor.opaque, line)
    finally:
        el.env = saved_env
    return result


# ---------------------------------------------------------------------------
# Signature expressions
# ---------------------------------------------------------------------------


def elab_sigexp(el: Elaborator, sigexp: ast.SigExp,
                name_hint: str = "?") -> Sig:
    if isinstance(sigexp, ast.SigSigExp):
        frame = el.push_frame()
        flex: list = []
        for spec in sigexp.specs:
            _elab_spec(el, spec, flex)
        el.pop_frame()
        env = Env()
        env.absorb(frame)
        return Sig(el.fresh_stamp(), name_hint, env, flex)
    if isinstance(sigexp, ast.VarSigExp):
        sig = el.env.lookup_signature(sigexp.name)
        if sig is None:
            el.error(f"unbound signature {sigexp.name}", sigexp.line)
        # Each *use* of a named signature is a fresh instance; otherwise
        # two structures specified with the same signature would share
        # their flexible tycons (implicit, unwanted sharing).
        return copy_sig_fresh(el, sig)
    if isinstance(sigexp, ast.WhereTypeSigExp):
        return _elab_where_type(el, sigexp, name_hint)
    raise AssertionError(f"unknown signature expression {sigexp!r}")


def copy_sig_fresh(el: Elaborator, sig: Sig) -> Sig:
    """A fresh instance of a signature: flexible stamps renamed."""
    if not sig.flex:
        return sig
    rlz = fresh_abstract_realization(_flex_tycons(sig), el.fresh_stamp)
    env = realize_env(sig.env, rlz, el.fresh_stamp)
    flex = [tycon.stamp for tycon in rlz.values()
            if isinstance(tycon, (AbstractTycon, DatatypeTycon))]
    for stamp in flex:
        el.new_stamps.add(stamp.id)
    return Sig(el.fresh_stamp(), sig.name, env, flex)


def _elab_where_type(el: Elaborator, sigexp: ast.WhereTypeSigExp,
                     name_hint: str) -> Sig:
    base = elab_sigexp(el, sigexp.base, name_hint)
    target = _lookup_sig_tycon(base.env, sigexp.path)
    if target is None:
        el.error(
            f"where type: {ast.path_str(sigexp.path)} is not specified in "
            f"the signature", sigexp.line)
    stamp = getattr(target, "stamp", None)
    if stamp is None or not any(stamp is s for s in base.flex):
        el.error(
            f"where type: {ast.path_str(sigexp.path)} is not a flexible "
            f"type in the signature", sigexp.line)
    definition = el._elab_typefun(sigexp.tyvars, sigexp.path[-1], sigexp.ty)
    if definition.arity != target.arity:
        el.error("where type: arity mismatch", sigexp.line)
    rlz: Realization = {stamp.id: definition}
    env = realize_env(base.env, rlz, el.fresh_stamp)
    flex = [s for s in base.flex if s is not stamp]
    return Sig(el.fresh_stamp(), base.name, env, flex)


def _lookup_sig_tycon(env: Env, path: ast.Path):
    node = env
    for name in path[:-1]:
        struct = node.structures.get(name)
        if struct is None:
            return None
        node = struct.env
    return node.tycons.get(path[-1])


# ---------------------------------------------------------------------------
# Specifications
# ---------------------------------------------------------------------------


def _elab_spec(el: Elaborator, spec: ast.Spec, flex: list) -> None:
    if isinstance(spec, ast.ValSpec):
        for name, ty in spec.bindings:
            el.env.bind_value(name,
                              ValueBinding(_elab_spec_type(el, ty)))
        return
    if isinstance(spec, ast.TypeSpec):
        for tyvars, name, definition in spec.bindings:
            if definition is not None:
                el.env.bind_tycon(
                    name, el._elab_typefun(tyvars, name, definition))
            else:
                tycon = AbstractTycon(el.fresh_stamp(), name, len(tyvars),
                                      eq=spec.equality)
                flex.append(tycon.stamp)
                el.env.bind_tycon(name, tycon)
        return
    if isinstance(spec, ast.DatatypeSpec):
        tycons, _cons = el.elab_datatype_bindings(spec.bindings)
        for tycon in tycons:
            flex.append(tycon.stamp)
        return
    if isinstance(spec, ast.ExceptionSpec):
        for name, arg_ty in spec.bindings:
            from repro.semant import prim

            if arg_ty is None:
                scheme: Type = prim.exn_type()
                has_arg = False
            else:
                scheme = FunType(el.elab_ty(arg_ty), prim.exn_type())
                has_arg = True
            con = Constructor(name, None, scheme, has_arg, is_exn=True)
            el.env.bind_value(name, ValueBinding(scheme, con))
        return
    if isinstance(spec, ast.StructureSpec):
        for name, sigexp in spec.bindings:
            sub = elab_sigexp(el, sigexp, name_hint=name)
            struct = Structure(el.fresh_stamp(), name, sub.env)
            el.env.bind_structure(name, struct)
            flex.extend(sub.flex)
        return
    if isinstance(spec, ast.IncludeSpec):
        sub = elab_sigexp(el, spec.sig)
        el.env.absorb(sub.env)
        flex.extend(sub.flex)
        return
    if isinstance(spec, ast.SharingSpec):
        _elab_sharing(el, spec, flex)
        return
    raise AssertionError(f"unknown spec {spec!r}")


def _elab_spec_type(el: Elaborator, ty: ast.Ty) -> Type:
    """Elaborate a val-spec type, implicitly quantifying its free type
    variables (per the Definition)."""
    scope = el.push_tyvars([], flexible=True)
    body = el.elab_ty(ty)
    el.pop_tyvars()
    if not scope.table:
        return body
    mapping: dict[int, BoundVar] = {}
    eqflags: list[bool] = []
    for var in scope.table.values():
        var = prune(var)
        assert isinstance(var, TyVar)
        mapping[var.id] = BoundVar(len(mapping))
        eqflags.append(var.eq)

    def walk(t: Type) -> Type:
        t = prune(t)
        if isinstance(t, TyVar):
            return mapping.get(t.id, t)
        if isinstance(t, ConType):
            return ConType(t.tycon, tuple(walk(a) for a in t.args))
        if isinstance(t, RecordType):
            return RecordType(
                tuple((label, walk(f)) for label, f in t.fields))
        if isinstance(t, FunType):
            return FunType(walk(t.dom), walk(t.rng))
        return t

    return PolyType(len(mapping), walk(body), tuple(eqflags))


def _elab_sharing(el: Elaborator, spec: ast.SharingSpec, flex: list) -> None:
    """``sharing type p1 = p2 = ...``: merge the named flexible tycons
    into one, rewriting the signature frame under construction."""
    tycons = []
    for path in spec.paths:
        tycon = _lookup_sig_tycon_chain(el.env, path)
        if tycon is None:
            el.error(
                f"sharing: unbound type {ast.path_str(path)}", spec.line)
        stamp = getattr(tycon, "stamp", None)
        if stamp is None or not any(stamp is s for s in flex):
            el.error(
                f"sharing: {ast.path_str(path)} is not a flexible type of "
                f"this signature", spec.line)
        tycons.append(tycon)
    canonical = tycons[0]
    rlz: Realization = {}
    for other in tycons[1:]:
        if other is canonical:
            continue
        if other.arity != canonical.arity:
            el.error("sharing: arity mismatch", spec.line)
        if isinstance(other, DatatypeTycon) or isinstance(
                canonical, DatatypeTycon):
            el.error(
                "sharing between datatype specs is not supported; share "
                "the abstract types instead", spec.line)
        if other.eq and not canonical.eq:
            canonical.eq = True
        rlz[other.stamp.id] = canonical
        flex[:] = [s for s in flex if s is not other.stamp]
    if rlz:
        _rewrite_frame_in_place(el.env, rlz, el.fresh_stamp)


def _lookup_sig_tycon_chain(env: Env, path: ast.Path):
    """Lookup a tycon path in the signature frame currently being built
    (falling back to outer scopes for the head)."""
    if len(path) == 1:
        return env.lookup_tycon(path[0])
    struct = env.lookup_structure(path[0])
    for name in path[1:-1]:
        if struct is None:
            return None
        struct = struct.env.structures.get(name)
    if struct is None:
        return None
    return struct.env.tycons.get(path[-1])


def _rewrite_frame_in_place(frame: Env, rlz: Realization,
                            fresh_stamp) -> None:
    """Apply a realization to the (private, under-construction) signature
    frame, mutating its tables."""
    for name, tycon in list(frame.tycons.items()):
        stamp = getattr(tycon, "stamp", None)
        if stamp is not None and stamp.id in rlz:
            frame.tycons[name] = rlz[stamp.id]
        elif isinstance(tycon, TypeFun):
            frame.tycons[name] = TypeFun(
                tycon.arity, realize_type(tycon.body, rlz), tycon.name)
    for name, vb in list(frame.values.items()):
        from repro.elab.realize import _realize_value_binding

        frame.values[name] = _realize_value_binding(vb, rlz)
    for name, struct in list(frame.structures.items()):
        _rewrite_frame_in_place(struct.env, rlz, fresh_stamp)


# ---------------------------------------------------------------------------
# Module-level declarations
# ---------------------------------------------------------------------------


def _elab_structure_dec(el: Elaborator, dec: ast.StructureDec) -> None:
    for binding in dec.bindings:
        struct = elab_strexp(el, binding.body, name_hint=binding.name)
        if binding.sig is not None:
            sig = elab_sigexp(el, binding.sig)
            struct = match_structure(el, struct, sig, binding.opaque,
                                     binding.line)
        struct = Structure(struct.stamp, binding.name, struct.env)
        el.env.bind_structure(binding.name, struct)


def _elab_signature_dec(el: Elaborator, dec: ast.SignatureDec) -> None:
    for name, sigexp in dec.bindings:
        sig = elab_sigexp(el, sigexp, name_hint=name)
        sig = Sig(sig.stamp, name, sig.env, sig.flex)
        el.env.bind_signature(name, sig)


def _elab_functor_dec(el: Elaborator, dec: ast.FunctorDec) -> None:
    for binding in dec.bindings:
        fct_param = None
        param_sig = None
        if binding.fct_param is not None:
            spec = binding.fct_param
            # Stored as AST; elaborated per use (the result part may
            # mention the inner parameter).
            fct_param = (spec.inner_param, spec.param_sig, spec.result_sig)
        else:
            param_sig = elab_sigexp(el, binding.param_sig,
                                    name_hint=binding.param_name)
        # The result signature stays AST, elaborated at each application
        # with the parameter in scope (dependent signatures).
        result_sig = binding.result_sig
        # The functor closes over a *trimmed* environment containing only
        # the names its body (and signatures) mention.  This is what lets
        # dehydration represent the closure's imported entities as
        # (pid, index) stubs instead of pickling the entire compilation
        # context -- and therefore what makes a functor's intrinsic pid
        # reflect exactly the external interfaces it depends on.
        closure_env = _trim_closure_env(el.env, binding)
        functor = Functor(
            el.fresh_stamp(), binding.name, binding.param_name, param_sig,
            result_sig, binding.opaque, binding.body, closure_env,
            fct_param=fct_param)
        _check_functor_definition(el, functor, binding.line)
        el.env.bind_functor(binding.name, functor)


def _trim_closure_env(env: Env, binding: ast.FctBind) -> Env:
    from repro.lang.freevars import mentioned_names

    mentions = mentioned_names(
        [binding.body, binding.param_sig, binding.result_sig,
         binding.fct_param])
    closure = Env()
    for name in sorted(mentions.values):
        vb = env.lookup_value(name)
        if vb is not None:
            closure.bind_value(name, vb)
    for name in sorted(mentions.tycons):
        tycon = env.lookup_tycon(name)
        if tycon is not None:
            closure.bind_tycon(name, tycon)
    for name in sorted(mentions.structures):
        struct = env.lookup_structure(name)
        if struct is not None:
            closure.bind_structure(name, struct)
    for name in sorted(mentions.signatures):
        sig = env.lookup_signature(name)
        if sig is not None:
            closure.bind_signature(name, sig)
    for name in sorted(mentions.functors):
        functor = env.lookup_functor(name)
        if functor is not None and name != binding.name:
            closure.bind_functor(name, functor)
    return closure


def _check_functor_definition(el: Elaborator, functor: Functor,
                              line: int) -> None:
    """Definition-time checking: elaborate the body against a formal
    parameter instance, verify the result signature, discard the result.

    For a higher-order functor, the formal parameter is an *abstract*
    functor (body None) whose applications yield fresh instances of the
    spec's result signature."""
    saved_env = el.env
    el.env = functor.def_env.child()
    try:
        if functor.takes_functor():
            inner_name, inner_sig_ast, inner_result_ast = functor.fct_param
            inner_sig = elab_sigexp(el, inner_sig_ast)
            formal = Functor(el.fresh_stamp(), functor.param_name,
                             inner_name, inner_sig, inner_result_ast,
                             False, None, el.env)
            el.env.bind_functor(functor.param_name, formal)
        else:
            formal_param = Structure(el.fresh_stamp(), functor.param_name,
                                     functor.param_sig.env)
            el.env.bind_structure(functor.param_name, formal_param)
        trial = elab_strexp(el, functor.body, name_hint=functor.name)
        if functor.result_sig is not None:
            result_sig = elab_sigexp(el, functor.result_sig)
            match_structure(el, trial, result_sig, functor.opaque, line)
    finally:
        el.env = saved_env


register_dec_handler(ast.StructureDec, _elab_structure_dec)
register_dec_handler(ast.SignatureDec, _elab_signature_dec)
register_dec_handler(ast.FunctorDec, _elab_functor_dec)
