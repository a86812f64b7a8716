"""Fallback facts frontend for lmerge_analyze: a project-aware C++ lexer.

Produces the same facts JSON as the Clang LibTooling extractor
(tools/analyzer/lmerge_analyze.cc) so tools/analyzer/analysis.py can run
the lock-order / thread-affinity / hot-path checks on hosts without the
Clang development libraries.  The LibTooling backend is authoritative (it
sees the real AST); this frontend is a faithful approximation built on the
same discipline the codebase already enforces:

  - every lock is an `lmerge::Mutex` member acquired through `MutexLock`
    (lint rule raw-mutex), so acquisitions are lexically recognizable;
  - Google style keeps declarations regular enough that member, parameter,
    and local types resolve receivers of method calls;
  - lambdas are modeled as separate anonymous functions (a lambda is a
    potential thread boundary: CallOnMergeThread, EventLoop::Post, thread
    entry points), exactly as the AST backend models them.

Known, documented approximations (see docs/STATIC_ANALYSIS.md):
  - overloads of one function name are merged into one node;
  - calls whose receiver type cannot be resolved produce no edge (counted
    in `unresolved_calls` so the analysis can report coverage);
  - allocation detection matches operator new / the malloc family /
    make_unique / make_shared and growth-method names on containers.
"""

import os
import re

# --- Tokenizer -------------------------------------------------------------

_TOKEN = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*"      # identifier
    r"|::|->|\+\+|--|<<=|>>=|<<|>>|<=|>=|==|!=|&&|\|\||\+=|-=|\*=|/=|%=|&=|\|=|\^=|="
    r"|[0-9][0-9A-Za-z_.+-]*"      # number (loose)
    r"|[{}()\[\];,<>.*&~!?:+\-/%^|=]"
)

LINE_COMMENT = re.compile(r"//[^\n]*")
BLOCK_COMMENT = re.compile(r"/\*.*?\*/", re.DOTALL)
STRING_LIT = re.compile(r'"(?:[^"\\\n]|\\.)*"')
CHAR_LIT = re.compile(r"'(?:[^'\\\n]|\\.)*'")
RAW_STRING = re.compile(r'R"([^(]*)\((?:.|\n)*?\)\1"')
PREPROC = re.compile(r"^[ \t]*#[^\n]*(?:\\\n[^\n]*)*", re.MULTILINE)


def _blank(match):
    return re.sub(r"[^\n]", " ", match.group(0))


def strip_noise(text):
    """Blanks comments, string/char literals, and preprocessor directives
    while preserving line numbers."""
    text = RAW_STRING.sub(_blank, text)
    text = BLOCK_COMMENT.sub(_blank, text)
    text = LINE_COMMENT.sub(_blank, text)
    text = STRING_LIT.sub(_blank, text)
    text = CHAR_LIT.sub(_blank, text)
    return PREPROC.sub(_blank, text)


class Tok:
    __slots__ = ("text", "line")

    def __init__(self, text, line):
        self.text = text
        self.line = line

    def __repr__(self):
        return f"{self.text}@{self.line}"


def tokenize(text):
    toks = []
    line = 1
    pos = 0
    for m in _TOKEN.finditer(text):
        line += text.count("\n", pos, m.start())
        pos = m.start()
        toks.append(Tok(m.group(0), line))
    return toks


# --- Facts model -----------------------------------------------------------

ANNOTATION_MACROS = {
    "LM_MERGE_THREAD_ONLY": "merge_thread_only",
    "LM_HOT_PATH": "hot_path",
}

GROWTH_METHODS = {
    "push_back", "emplace_back", "emplace", "emplace_hint", "insert",
    "resize", "append", "push_front", "emplace_front",
}

MALLOC_FAMILY = {"malloc", "calloc", "realloc", "strdup", "aligned_alloc"}

# Identifiers that look like calls but are not.
_NOT_CALLS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast",
    "decltype", "noexcept", "catch", "assert", "defined", "alignas",
    "static_assert", "new", "delete", "throw", "case",
}

_TYPE_NOISE = {
    "const", "constexpr", "static", "mutable", "volatile", "inline",
    "virtual", "explicit", "typename", "struct", "class", "unsigned",
    "signed", "long", "short", "friend", "extern", "thread_local",
}

_PRIMITIVES = {
    "void", "int", "bool", "char", "float", "double", "auto", "size_t",
    "int8_t", "int16_t", "int32_t", "int64_t", "uint8_t", "uint16_t",
    "uint32_t", "uint64_t", "uintptr_t", "intptr_t", "ssize_t", "wchar_t",
}


class FunctionFacts:
    def __init__(self, name, file, line):
        self.name = name
        self.file = file
        self.line = line
        self.annotations = set()
        self.requires = []      # lock ids from LM_REQUIRES
        self.acquires = []      # {lock, line, held: [lock ids]}
        self.calls = []         # {callee, line, held: [lock ids]}
        self.allocs = []        # {kind, detail, line}
        self.is_lambda = False

    def to_json(self):
        return {
            "name": self.name,
            "file": self.file,
            "line": self.line,
            "annotations": sorted(self.annotations),
            "requires": self.requires,
            "acquires": self.acquires,
            "calls": self.calls,
            "allocs": self.allocs,
            "is_lambda": self.is_lambda,
        }


class ClassFacts:
    def __init__(self, name, file, line):
        self.name = name
        self.file = file
        self.line = line
        self.bases = []
        self.locks = []          # Mutex member names
        self.members = {}        # member name -> raw type string
        self.methods = set()     # unqualified method names declared here
        # `using Alias = Target<...>;` -> raw target type (template name
        # only).  Resolution-only: not part of the facts schema, since the
        # LibTooling frontend sees through aliases itself.
        self.aliases = {}

    def to_json(self):
        return {
            "name": self.name,
            "file": self.file,
            "line": self.line,
            "bases": self.bases,
            "locks": self.locks,
            "members": self.members,
            "methods": sorted(self.methods),
        }


class Facts:
    def __init__(self):
        self.functions = {}      # qualified name -> FunctionFacts (merged)
        self.classes = {}        # qualified name -> ClassFacts
        self.declared_edges = []  # {before, after, file, line}
        self.unresolved_calls = 0
        self.files = []
        # Function names from an earlier pass, so a call resolves against
        # a definition in a file parsed later.  Resolution-only.
        self.known_functions = set()

    def function(self, name, file, line):
        fn = self.functions.get(name)
        if fn is None:
            fn = FunctionFacts(name, file, line)
            self.functions[name] = fn
        return fn

    def klass(self, name, file, line):
        cls = self.classes.get(name)
        if cls is None:
            cls = ClassFacts(name, file, line)
            self.classes[name] = cls
        return cls

    def to_json(self):
        return {
            "functions": [f.to_json() for f in self.functions.values()],
            "classes": [c.to_json() for c in self.classes.values()],
            "declared_edges": self.declared_edges,
            "unresolved_calls": self.unresolved_calls,
            "files": self.files,
        }


# --- Parser ----------------------------------------------------------------

class _Scope:
    NAMESPACE = "namespace"
    CLASS = "class"
    FUNCTION = "function"
    BLOCK = "block"
    OTHER = "other"

    def __init__(self, kind, name=None, cls=None, fn=None):
        self.kind = kind
        self.name = name
        self.cls = cls            # ClassFacts for CLASS scopes
        self.fn = fn              # FunctionFacts for FUNCTION scopes
        self.locks = []           # [var name, lock id, active] in this scope
        self.local_types = {}     # var -> raw type (FUNCTION/BLOCK scopes)
        self.local_locks = {}     # function-local Mutex name -> lock id


class FileParser:
    def __init__(self, facts, rel_path, toks):
        self.facts = facts
        self.file = rel_path
        self.toks = toks
        self.i = 0
        self.scopes = []          # stack of _Scope

    # -- scope helpers --

    def _namespace(self):
        return "::".join(
            s.name for s in self.scopes
            if s.kind == _Scope.NAMESPACE and s.name)

    def _class_stack(self):
        return [s for s in self.scopes if s.kind == _Scope.CLASS]

    def _current_class(self):
        stack = self._class_stack()
        return stack[-1].cls if stack else None

    def _current_fn(self):
        for s in reversed(self.scopes):
            if s.kind == _Scope.FUNCTION:
                return s.fn
        return None

    def _qualify_class(self, name):
        """Qualified name for a class declared in the current scope."""
        parts = [s.name for s in self.scopes
                 if s.kind == _Scope.NAMESPACE and s.name]
        parts += [s.cls.name.rsplit("::", 1)[-1] for s in self._class_stack()]
        parts.append(name)
        return "::".join(parts)

    # -- main loop --

    def parse(self):
        toks = self.toks
        n = len(toks)
        head_start = 0           # first token of the current "statement head"
        while self.i < n:
            t = toks[self.i]
            if t.text == "{":
                self._open_brace(head_start, self.i)
                self.i += 1
                head_start = self.i
            elif t.text == "}":
                self._close_brace()
                self.i += 1
                # skip optional `;`
                head_start = self.i
            elif t.text == ";":
                self._statement(head_start, self.i)
                self.i += 1
                head_start = self.i
            else:
                self.i += 1
        return self.facts

    # -- brace classification --

    def _open_brace(self, head_start, brace_pos):
        toks = self.toks
        head = toks[head_start:brace_pos]
        in_fn = self._current_fn() is not None

        if in_fn:
            # Lambda body?  Scan head for a lambda introducer.
            lam = self._lambda_in_head(head)
            if lam is not None:
                self._consume_statement_effects(head_start, brace_pos)
                parent = self._current_fn()
                name = f"{parent.name}::{{lambda:{toks[brace_pos].line}}}"
                fn = self.facts.function(name, self.file, toks[brace_pos].line)
                fn.is_lambda = True
                self.scopes.append(_Scope(_Scope.FUNCTION, fn=fn))
                return
            # Plain block (if/for/while/scope) — process the head as
            # statement-ish content first (e.g. `if (Foo())`).
            self._consume_statement_effects(head_start, brace_pos)
            block = _Scope(_Scope.BLOCK)
            self._register_range_for_var(head, block)
            self.scopes.append(block)
            return

        texts = [t.text for t in head]
        if "namespace" in texts:
            idx = texts.index("namespace")
            name = None
            if idx + 1 < len(texts) and re.match(r"[A-Za-z_]", texts[idx + 1]):
                name = texts[idx + 1]
            self.scopes.append(_Scope(_Scope.NAMESPACE, name=name))
            return

        if ("class" in texts or "struct" in texts) and "enum" not in texts:
            self._open_class(head)
            return

        if "enum" in texts or ("=" in texts and ")" not in texts):
            # enum body or brace initializer at class/namespace scope
            self.scopes.append(_Scope(_Scope.OTHER))
            return

        if ")" in texts:
            self._open_function(head, head_start, brace_pos)
            return

        self.scopes.append(_Scope(_Scope.OTHER))

    @staticmethod
    def _register_range_for_var(head, block):
        """`for (Type* var : range)` — record var's type in the new block
        scope (the classic 3-clause for has `;` and is skipped)."""
        texts = [t.text for t in head]
        if "for" not in texts or ";" in texts:
            return
        try:
            open_idx = texts.index("(", texts.index("for"))
        except ValueError:
            return
        depth = 0
        colon = None
        for k in range(open_idx, len(texts)):
            if texts[k] in ("(", "<", "["):
                depth += 1
            elif texts[k] in (")", ">", "]"):
                depth -= 1
            elif texts[k] == ":" and depth == 1:
                colon = k
                break
        if colon is None:
            return
        ids = [tx for tx in texts[open_idx + 1:colon]
               if re.match(r"[A-Za-z_][A-Za-z0-9_]*$", tx)
               and tx not in _TYPE_NOISE]
        if len(ids) >= 2 and ids[0] != "auto":
            block.local_types[ids[-1]] = " ".join(ids[:-1])

    def _lambda_in_head(self, head):
        for k, t in enumerate(head):
            if t.text != "[":
                continue
            prev = head[k - 1].text if k > 0 else "("
            if prev in ("(", ",", "{", "=", "return", ";", ":", "&&",
                        "||", "<", ">"):
                return k
        return None

    def _open_class(self, head):
        texts = [t.text for t in head]
        kw = "class" if "class" in texts else "struct"
        idx = texts.index(kw)
        # name is the identifier after the keyword (skip attribute macros,
        # which are ALL_CAPS with args — e.g. LM_CAPABILITY("mutex")).
        name = None
        j = idx + 1
        while j < len(texts):
            tx = texts[j]
            if re.match(r"[A-Za-z_][A-Za-z0-9_]*$", tx):
                if tx.isupper() or tx in ("final", "alignas"):
                    # macro/attribute: skip it and a following (...) group
                    j += 1
                    if j < len(texts) and texts[j] == "(":
                        depth = 0
                        while j < len(texts):
                            if texts[j] == "(":
                                depth += 1
                            elif texts[j] == ")":
                                depth -= 1
                                if depth == 0:
                                    break
                            j += 1
                        j += 1
                    continue
                # qualified definition: `struct LoopbackListener::State {`
                parts = [tx]
                while j + 2 < len(texts) and texts[j + 1] == "::" and \
                        re.match(r"[A-Za-z_][A-Za-z0-9_]*$", texts[j + 2]):
                    parts.append(texts[j + 2])
                    j += 2
                name = "::".join(parts)
                break
            j += 1
        if name is None:
            self.scopes.append(_Scope(_Scope.OTHER))
            return
        qual = self._qualify_class(name)
        cls = self.facts.klass(qual, self.file, head[0].line if head else 0)
        # bases: identifiers after `:` (skipping public/protected/private)
        if ":" in texts[j:]:
            cidx = j + texts[j:].index(":")
            base_toks = texts[cidx + 1:]
            depth = 0
            cur = []
            for tx in base_toks:
                if tx in ("<",):
                    depth += 1
                elif tx in (">",):
                    depth -= 1
                elif depth == 0 and tx == ",":
                    cur = []
                elif depth == 0 and re.match(r"[A-Za-z_]", tx) and \
                        tx not in ("public", "protected", "private",
                                   "virtual"):
                    cur.append(tx)
                    if cur:
                        base = cur[-1]
                        if base not in cls.bases:
                            cls.bases.append(base)
        self.scopes.append(_Scope(_Scope.CLASS, cls=cls))

    def _open_function(self, head, head_start, brace_pos):
        """A `)`-containing head followed by `{` outside a function body:
        a function definition (possibly with ctor init list)."""
        texts = [t.text for t in head]
        # Find the parameter list: the parenthesized group whose opener
        # matches the function name position.  Take the FIRST `(` at depth 0
        # scanning left-to-right, its preceding identifier chain is the name.
        depth = 0
        open_idx = None
        for k, tx in enumerate(texts):
            if tx == "(":
                open_idx = k
                break
        if open_idx is None or open_idx == 0:
            self.scopes.append(_Scope(_Scope.OTHER))
            return
        # `operator()` etc: skip operators — name them operator.
        name_parts = []
        k = open_idx - 1
        # collect trailing identifier chain  A :: B :: [~]name
        while k >= 0:
            tx = texts[k]
            if re.match(r"[A-Za-z_][A-Za-z0-9_]*$", tx):
                if k >= 1 and texts[k - 1] == "~":
                    name_parts.insert(0, "~" + tx)
                    k -= 1
                else:
                    name_parts.insert(0, tx)
                if k >= 2 and texts[k - 1] == "::":
                    k -= 2
                    continue
            break
        if not name_parts or name_parts[-1].lstrip("~") in _PRIMITIVES:
            self.scopes.append(_Scope(_Scope.OTHER))
            return

        cls = self._current_class()
        ns = self._namespace()
        if len(name_parts) > 1:
            # Out-of-class definition: Class::Method (resolve class against
            # known classes to get full qualification).
            method = name_parts[-1]
            holder = "::".join(name_parts[:-1])
            qual_holder = self._resolve_class_name(holder)
            if qual_holder:
                qname = qual_holder + "::" + method
                holder_cls = self.facts.classes.get(qual_holder)
                if holder_cls is not None:
                    holder_cls.methods.add(method)
            else:
                qname = (ns + "::" if ns else "") + holder + "::" + method
        elif cls is not None:
            qname = cls.name + "::" + name_parts[0]
            cls.methods.add(name_parts[0])
        else:
            qname = (ns + "::" if ns else "") + name_parts[0]
            # Keep per-file identities distinct for symbols with internal
            # linkage: each tool's `main` and every anonymous-namespace
            # helper would otherwise merge into one whole-repo node.
            if name_parts[0] == "main" or self._in_anonymous_namespace():
                qname = f"{qname}@{self.file}"

        fn = self.facts.function(qname, self.file, head[0].line)
        self._harvest_signature(fn, head, texts, open_idx)
        scope = _Scope(_Scope.FUNCTION, fn=fn)
        scope.local_types = self._param_types(texts, open_idx)
        self.scopes.append(scope)

    def _harvest_signature(self, fn, head, texts, open_idx):
        """Annotations and LM_REQUIRES from a definition head."""
        for k, tx in enumerate(texts):
            if tx in ANNOTATION_MACROS:
                fn.annotations.add(ANNOTATION_MACROS[tx])
            if tx == "LM_REQUIRES" and k + 1 < len(texts) and \
                    texts[k + 1] == "(":
                group = self._paren_group(texts, k + 1)
                for expr in self._split_top_commas(group):
                    lock = self._resolve_lock_expr(expr, head[0].line)
                    if lock and lock not in fn.requires:
                        fn.requires.append(lock)

    def _param_types(self, texts, open_idx):
        """Best-effort parameter name -> type map."""
        depth = 0
        end = open_idx
        for k in range(open_idx, len(texts)):
            if texts[k] == "(":
                depth += 1
            elif texts[k] == ")":
                depth -= 1
                if depth == 0:
                    end = k
                    break
        params = {}
        group = texts[open_idx + 1:end]
        # split at top-level commas
        depth = 0
        cur = []
        chunks = []
        for tx in group:
            if tx in ("<", "(", "["):
                depth += 1
            elif tx in (">", ")", "]"):
                depth -= 1
            if tx == "," and depth == 0:
                chunks.append(cur)
                cur = []
            else:
                cur.append(tx)
        if cur:
            chunks.append(cur)
        for chunk in chunks:
            # drop default value
            if "=" in chunk:
                chunk = chunk[:chunk.index("=")]
            ids = [tx for tx in chunk if re.match(r"[A-Za-z_]", tx)
                   and tx not in _TYPE_NOISE]
            if len(ids) >= 2:
                params[ids[-1]] = " ".join(ids[:-1])
        return params

    def _close_brace(self):
        if self.scopes:
            self.scopes.pop()

    # -- statements ---------------------------------------------------------

    def _statement(self, start, end):
        toks = self.toks
        if start >= end:
            return
        if self._current_fn() is not None:
            self._consume_statement_effects(start, end)
            return
        cls = self._current_class()
        if cls is not None:
            self._class_member_decl(start, end)
            return
        # namespace-scope declaration: record free-function decls minimally
        self._maybe_function_decl(start, end)

    def _class_member_decl(self, start, end):
        toks = self.toks
        texts = [t.text for t in toks[start:end]]
        # access-specifier labels glue onto the following declaration
        # (statements split on `;`/braces, not on `:`): strip them.
        while len(texts) >= 2 and \
                texts[0] in ("public", "private", "protected") and \
                texts[1] == ":":
            texts = texts[2:]
            start += 2
        if not texts:
            return
        cls = self._current_class()
        # method declaration (has parens): harvest annotations/requires so
        # header decls annotate the merged function node.
        if "(" in texts and not texts[0] in ("using", "typedef", "friend"):
            open_idx = texts.index("(")
            k = open_idx - 1
            tok = texts[k] if k >= 0 else ""
            if re.match(r"[A-Za-z_~][A-Za-z0-9_]*$", tok) \
                    and tok not in _TYPE_NOISE \
                    and tok not in _PRIMITIVES \
                    and not tok.startswith("LM_"):
                method = tok
                cls.methods.add(method)
                qname = cls.name + "::" + method
                fn = self.facts.function(qname, self.file,
                                         toks[start].line)
                self._harvest_signature(fn, toks[start:end], texts, open_idx)
                return
            if not (tok.startswith("LM_") or tok in _PRIMITIVES):
                # operator overloads etc. — not a data member either
                return
            # `Mutex m_ LM_ACQUIRED_AFTER(x)` / `std::function<void()> cb_`:
            # the paren belongs to an annotation macro or a function type;
            # fall through to the data-member parse.
        if len(texts) >= 4 and texts[0] == "using" and texts[2] == "=" and \
                re.match(r"[A-Za-z_][A-Za-z0-9_]*$", texts[1]):
            target = texts[3:]
            if "<" in target:
                target = target[:target.index("<")]
            cls.aliases[texts[1]] = " ".join(
                tx for tx in target if re.match(r"[A-Za-z_]", tx)
                and tx not in _TYPE_NOISE)
            return
        if texts[0] in ("using", "typedef", "friend", "public", "private",
                        "protected", "template", "enum", "static_assert"):
            return
        # data member: `Type name_ [LM_GUARDED_BY(...)] [LM_ACQUIRED_AFTER(x)]`
        # find the declared name: last identifier before the first
        # annotation macro / `=` / `{` / end.
        stop = len(texts)
        for mark in ("LM_GUARDED_BY", "LM_PT_GUARDED_BY", "LM_ACQUIRED_AFTER",
                     "LM_ACQUIRED_BEFORE", "=", "{"):
            if mark in texts:
                stop = min(stop, texts.index(mark))
        decl = texts[:stop]
        ids = [tx for tx in decl if re.match(r"[A-Za-z_]", tx)
               and tx not in _TYPE_NOISE]
        if len(ids) < 2:
            return
        name = ids[-1]
        type_str = " ".join(ids[:-1])
        cls.members[name] = type_str
        if ids[0] == "Mutex" or type_str.endswith("Mutex"):
            if name not in cls.locks:
                cls.locks.append(name)
            # declared ordering edges
            for k, tx in enumerate(texts):
                if tx == "LM_ACQUIRED_AFTER" and k + 1 < len(texts) and \
                        texts[k + 1] == "(":
                    expr = self._paren_group(texts, k + 1)
                    before = self._resolve_lock_expr(expr, toks[start].line)
                    if before:
                        self.facts.declared_edges.append({
                            "before": before,
                            "after": cls.name + "::" + name,
                            "file": self.file,
                            "line": toks[start].line,
                        })

    def _maybe_function_decl(self, start, end):
        pass  # free-function decls carry no facts we need beyond defs

    # -- function-body effects ----------------------------------------------

    def _consume_statement_effects(self, start, end):
        """Scan tokens [start, end) inside a function body for lock
        acquisitions, local declarations, calls, and allocation sites."""
        toks = self.toks
        texts = [t.text for t in toks[start:end]]
        fn = self._current_fn()
        if fn is None or not texts:
            return

        # MutexLock guard(expr)  /  MutexLock guard{expr}
        if texts[0] == "MutexLock" and len(texts) >= 3:
            var = texts[1]
            if texts[2] in ("(", "{"):
                expr = self._paren_group(texts, 2)
                lock = self._resolve_lock_expr(expr, toks[start].line)
                held = self._held_locks()
                fn.acquires.append({
                    "lock": lock or "::".join(expr),
                    "resolved": lock is not None,
                    "line": toks[start].line,
                    "held": held,
                })
                scope = self.scopes[-1] if self.scopes else None
                if scope is not None:
                    scope.locks.append([var, lock or "?", True])
            return

        # function-local mutex declaration: `Mutex name;` (tool mains keep
        # stats under a local mutex).  Lock id is qualified by the function.
        decl = texts[2:] if texts[:2] == ["lmerge", "::"] else texts
        if len(decl) == 2 and decl[0] == "Mutex" and \
                re.match(r"[A-Za-z_][A-Za-z0-9_]*$", decl[1]):
            scope = self.scopes[-1] if self.scopes else None
            if scope is not None:
                scope.local_locks[decl[1]] = fn.name + "::" + decl[1]
            return

        # lock.Unlock() / lock.Lock() toggles on a guard variable
        if len(texts) >= 3 and texts[1] == "." and \
                texts[2] in ("Unlock", "Lock"):
            for s in reversed(self.scopes):
                if s.kind not in (_Scope.FUNCTION, _Scope.BLOCK):
                    break
                for entry in s.locks:
                    if entry[0] == texts[0]:
                        entry[2] = texts[2] == "Lock"

        # local declarations:  Type name = / Type name( / Type& name =
        self._maybe_local_decl(texts)

        # allocations + calls
        self._scan_calls_and_allocs(start, end)

    def _maybe_local_decl(self, texts):
        scope = self.scopes[-1] if self.scopes else None
        if scope is None or scope.kind not in (_Scope.FUNCTION, _Scope.BLOCK):
            return
        # pattern: leading identifier chain (type tokens incl. templates)
        # then identifier then one of = ( ; {
        if not re.match(r"[A-Za-z_]", texts[0]) or texts[0] in _NOT_CALLS:
            return
        # find `=` at depth 0
        depth = 0
        eq = None
        for k, tx in enumerate(texts):
            if tx in ("<", "(", "["):
                depth += 1
            elif tx in (">", ")", "]"):
                depth -= 1
            elif tx == "=" and depth == 0:
                eq = k
                break
        if eq is None or eq < 2:
            return
        name = texts[eq - 1]
        if not re.match(r"[A-Za-z_][A-Za-z0-9_]*$", name):
            return
        ids = [tx for tx in texts[:eq - 1] if re.match(r"[A-Za-z_]", tx)
               and tx not in _TYPE_NOISE]
        if not ids or ids[-1] == "auto" or "auto" in ids:
            # `auto x = make_shared<ServeState>()` / `auto& s = *shards_[i]`:
            # infer from the initializer — first identifier that names a
            # project class (template arg) or whose known type maps to one.
            for tx in texts[eq + 1:]:
                if not re.match(r"[A-Za-z_][A-Za-z0-9_]*$", tx) or \
                        tx in _TYPE_NOISE:
                    continue
                cls_name = self._resolve_class_name(tx)
                if cls_name is None:
                    var_type = self._lookup_var_type(tx)
                    cls_name = self._type_to_class(var_type) \
                        if var_type else None
                if cls_name:
                    scope.local_types[name] = cls_name
                    return
            return
        scope.local_types[name] = " ".join(ids)

    def _scan_calls_and_allocs(self, start, end):
        toks = self.toks
        texts = [t.text for t in toks[start:end]]
        fn = self._current_fn()
        held = self._held_locks()

        k = 0
        while k < len(texts):
            tx = texts[k]
            line = toks[start + k].line

            # operator new
            if tx == "new":
                what = texts[k + 1] if k + 1 < len(texts) else "?"
                fn.allocs.append({"kind": "new", "detail": f"new {what}",
                                  "line": line})
                # `new T(...)` also calls T's constructor
                ctor = self._resolve_class_name(what)
                if ctor:
                    fn.calls.append({
                        "callee": ctor + "::" + ctor.rsplit("::", 1)[-1],
                        "line": line, "held": held})
                k += 1
                continue

            if tx in MALLOC_FAMILY and k + 1 < len(texts) and \
                    texts[k + 1] == "(":
                fn.allocs.append({"kind": "malloc", "detail": tx,
                                  "line": line})
                k += 1
                continue

            if tx in ("make_unique", "make_shared") and k + 1 < len(texts) \
                    and texts[k + 1] == "<":
                arg = texts[k + 2] if k + 2 < len(texts) else "?"
                fn.allocs.append({"kind": "new",
                                  "detail": f"{tx}<{arg}>", "line": line})
                ctor = self._resolve_class_name(arg)
                if ctor:
                    fn.calls.append({
                        "callee": ctor + "::" + ctor.rsplit("::", 1)[-1],
                        "line": line, "held": held})
                k += 1
                continue

            if tx == "to_string" and k + 1 < len(texts) and \
                    texts[k + 1] == "(":
                fn.allocs.append({"kind": "string", "detail": "to_string",
                                  "line": line})
                k += 1
                continue

            # method or free call: identifier followed by `(`
            if re.match(r"[A-Za-z_][A-Za-z0-9_]*$", tx) and \
                    tx not in _NOT_CALLS and k + 1 < len(texts) and \
                    texts[k + 1] == "(":
                prev = texts[k - 1] if k > 0 else None
                if prev in (".", "->"):
                    recv = texts[k - 2] if k >= 2 else None
                    if tx in GROWTH_METHODS:
                        fn.allocs.append({
                            "kind": "container-growth",
                            "detail": f"{recv}.{tx}" if recv else tx,
                            "line": line})
                    callee = self._resolve_method_call(recv, tx,
                                                      k, texts)
                    if callee:
                        fn.calls.append({"callee": callee, "line": line,
                                         "held": held})
                    elif self._is_project_method(tx):
                        self.facts.unresolved_calls += 1
                elif prev == "::":
                    # qualified: collect chain
                    chain = [tx]
                    j = k - 1
                    while j >= 1 and texts[j] == "::" and \
                            re.match(r"[A-Za-z_]", texts[j - 1]):
                        chain.insert(0, texts[j - 1])
                        j -= 2
                    callee = self._resolve_qualified_call(chain)
                    if callee:
                        fn.calls.append({"callee": callee, "line": line,
                                         "held": held})
                else:
                    callee = self._resolve_plain_call(tx)
                    if callee:
                        fn.calls.append({"callee": callee, "line": line,
                                         "held": held})
            k += 1

    # -- resolution helpers ---------------------------------------------------

    @staticmethod
    def _split_top_commas(tokens):
        depth = 0
        out = [[]]
        for tx in tokens:
            if tx in ("<", "(", "["):
                depth += 1
            elif tx in (">", ")", "]"):
                depth -= 1
            if tx == "," and depth == 0:
                out.append([])
            else:
                out[-1].append(tx)
        return [chunk for chunk in out if chunk]

    def _paren_group(self, texts, open_idx):
        """Token texts inside the group opened at texts[open_idx]."""
        closer = {"(": ")", "{": "}"}[texts[open_idx]]
        opener = texts[open_idx]
        depth = 0
        out = []
        for tx in texts[open_idx:]:
            if tx == opener:
                depth += 1
                if depth == 1:
                    continue
            elif tx == closer:
                depth -= 1
                if depth == 0:
                    break
            out.append(tx)
        return out

    def _in_anonymous_namespace(self):
        return any(s.kind == _Scope.NAMESPACE and s.name is None
                   for s in self.scopes)

    def _held_locks(self):
        """Locks held in the innermost function only: a lambda does NOT
        inherit its encloser's guards (it may run on another thread)."""
        held = []
        for s in reversed(self.scopes):
            for _var, lock, active in s.locks:
                if active and lock != "?" and lock not in held:
                    held.append(lock)
            if s.kind == _Scope.FUNCTION:
                break
        # entry-point REQUIRES contributes at analysis time, not here.
        return held

    def _unique_method_owner(self, method):
        owners = [c.name for c in self.facts.classes.values()
                  if method in c.methods]
        if len(owners) == 1:
            return owners[0] + "::" + method
        return None

    def _lookup_var_type(self, name):
        # Walk past FUNCTION scopes: a lambda sees its encloser's locals
        # (captures are lexically the same variables).
        for s in reversed(self.scopes):
            if s.kind in (_Scope.FUNCTION, _Scope.BLOCK):
                if name in s.local_types:
                    return s.local_types[name]
        cls = self._enclosing_class_for_fn()
        while cls is not None:
            if name in cls.members:
                return cls.members[name]
            cls = self._base_class(cls)
        return None

    def _enclosing_class_for_fn(self):
        fn = self._current_fn()
        if fn is None:
            return None
        qual = fn.name
        while "::" in qual:
            qual = qual.rsplit("::", 1)[0]
            if qual in self.facts.classes:
                return self.facts.classes[qual]
        return None

    def _base_class(self, cls):
        for base in cls.bases:
            resolved = self._resolve_class_name(base)
            if resolved and resolved in self.facts.classes:
                return self.facts.classes[resolved]
        return None

    def _resolve_class_name(self, name):
        """Maps a (possibly partially qualified) class name to a known
        qualified class, preferring the current namespace/class nesting."""
        if name in self.facts.classes:
            return name
        # try suffix match: any known class whose qualified name ends with
        # ::name (or ::A::B for A::B)
        suffix = "::" + name
        candidates = [c for c in self.facts.classes if c.endswith(suffix)]
        if len(candidates) == 1:
            return candidates[0]
        if candidates:
            # prefer a class nested in the enclosing class chain (e.g.
            # `Shard` inside PartitionedMerger means PartitionedMerger::Shard,
            # not PayloadStore::Shard), then the current namespace; a still-
            # ambiguous name resolves to nothing rather than the wrong class.
            encl = self._enclosing_class_for_fn() or self._current_class()
            while encl is not None:
                if encl.name + suffix in candidates:
                    return encl.name + suffix
                encl = self._base_class(encl)
            ns = self._namespace()
            ns_hits = [c for c in candidates
                       if ns and c.startswith(ns + "::")]
            if len(ns_hits) == 1:
                return ns_hits[0]
        return None

    def _type_to_class(self, type_str, depth=0):
        """Extracts the project class a declaration type refers to: the
        last identifier in the type string that names a known class, where
        `Holder::Name` may name a class alias or a nested class of Holder
        (`In2t::EndTable&` is the SmallMap the alias stands for)."""
        if type_str is None:
            return None
        found = None
        for tx in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", type_str):
            resolved = self._alias_target(found, tx, depth)
            if resolved is None and found is not None and \
                    found + "::" + tx in self.facts.classes:
                resolved = found + "::" + tx
            if resolved is None:
                resolved = self._resolve_class_name(tx)
            if resolved:
                found = resolved
        return found

    def _alias_target(self, holder, name, depth):
        """The class an alias `name` stands for: declared in `holder` (or
        its bases), or with no holder in the enclosing class chain."""
        if depth > 4:  # alias of an alias of ...: give up, never loop
            return None
        if holder is not None:
            cls = self.facts.classes.get(holder)
        else:
            cls = self._enclosing_class_for_fn() or self._current_class()
        while cls is not None:
            if name in cls.aliases:
                return self._type_to_class(cls.aliases[name], depth + 1)
            cls = self._base_class(cls)
        return None

    def _resolve_lock_expr(self, expr_tokens, line):
        """Resolves the argument of MutexLock(...) / LM_REQUIRES(...) /
        LM_ACQUIRED_AFTER(...) to a canonical lock id `Class::member`."""
        ids = [tx for tx in expr_tokens
               if re.match(r"[A-Za-z_][A-Za-z0-9_]*$", tx)]
        if not ids:
            return None
        member = ids[-1]
        if len(ids) == 1:
            # function-local mutex (incl. one captured by a lambda)?
            for s in reversed(self.scopes):
                if member in s.local_locks:
                    return s.local_locks[member]
            # bare member: search enclosing class chain, then any class
            # scope we are lexically inside (for decl-context macros).
            cls = self._enclosing_class_for_fn() or self._current_class()
            while cls is not None:
                if member in cls.locks or member in cls.members:
                    return cls.name + "::" + member
                cls = self._base_class(cls)
            return self._unique_lock_owner(member)
        # receiver chain: resolve the first identifier's type, then walk.
        recv = ids[0]
        type_str = self._lookup_var_type(recv)
        cls_name = self._type_to_class(type_str) if type_str else None
        if cls_name is None:
            cls_name = self._resolve_class_name(recv)  # static-ish Class::m
        if cls_name:
            cur = self.facts.classes.get(cls_name)
            for step in ids[1:-1]:
                if cur is None:
                    break
                step_type = cur.members.get(step)
                nxt = self._type_to_class(step_type) if step_type else None
                cur = self.facts.classes.get(nxt) if nxt else None
            if cur is not None and (member in cur.locks or
                                    member in cur.members):
                return cur.name + "::" + member
        return self._unique_lock_owner(member)

    def _unique_lock_owner(self, member):
        owners = [c.name for c in self.facts.classes.values()
                  if member in c.locks]
        if len(owners) == 1:
            return owners[0] + "::" + member
        return None

    def _is_project_method(self, name):
        return any(name in c.methods for c in self.facts.classes.values())

    def _resolve_method_call(self, recv, method, k, texts):
        if recv is None or not re.match(r"[A-Za-z_]", recv or ""):
            # receiver is an expression; try unique method owner
            return self._unique_method_owner(method)
        if recv == "this":
            cls = self._enclosing_class_for_fn()
            return self._method_in_chain(cls, method)
        type_str = self._lookup_var_type(recv)
        cls_name = self._type_to_class(type_str) if type_str else None
        if cls_name:
            cls = self.facts.classes.get(cls_name)
            hit = self._method_in_chain(cls, method)
            if hit:
                return hit
        return self._unique_method_owner(method)

    def _method_in_chain(self, cls, method):
        while cls is not None:
            if method in cls.methods:
                return cls.name + "::" + method
            cls = self._base_class(cls)
        return None

    def _resolve_plain_call(self, name):
        cls = self._enclosing_class_for_fn()
        hit = self._method_in_chain(cls, name)
        if hit:
            return hit
        ns = self._namespace()
        ns_name = (ns + "::" + name) if ns else name
        for cand in (f"{ns_name}@{self.file}", f"{name}@{self.file}",
                     ns_name, name, "lmerge::" + name):
            if cand in self.facts.functions or \
                    cand in self.facts.known_functions:
                return cand
        return None

    def _resolve_qualified_call(self, chain):
        holder = "::".join(chain[:-1])
        method = chain[-1]
        cls_name = self._resolve_class_name(holder)
        if cls_name:
            cls = self.facts.classes.get(cls_name)
            hit = self._method_in_chain(cls, method)
            if hit:
                return hit
            return cls_name + "::" + method
        full = "::".join(chain)
        for cand in (full, "lmerge::" + full):
            if cand in self.facts.functions or \
                    cand in self.facts.known_functions:
                return cand
        return None


# --- Entry points ----------------------------------------------------------

def extract_file(facts, root, rel_path):
    path = os.path.join(root, rel_path)
    with open(path, encoding="utf-8") as f:
        text = f.read()
    toks = tokenize(strip_noise(text))
    facts.files.append(rel_path)
    FileParser(facts, rel_path, toks).parse()


def extract_tree(root, rel_paths):
    """Two passes: the first builds the class/member/method tables, the
    second resolves lock expressions and call receivers against them."""
    facts = Facts()
    token_cache = {}
    for rel in rel_paths:
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            token_cache[rel] = tokenize(strip_noise(f.read()))
    # pass 1: declarations only (functions still parsed; resolution tables
    # fill up as we go).
    for rel in rel_paths:
        facts.files.append(rel)
        FileParser(facts, rel, token_cache[rel]).parse()
    # pass 2: reparse with the complete class table so early files resolve
    # against classes declared later.
    facts2 = Facts()
    facts2.classes = facts.classes
    facts2.known_functions = set(facts.functions)
    for cls in facts2.classes.values():
        cls.methods = set(cls.methods)
    for rel in rel_paths:
        facts2.files.append(rel)
        FileParser(facts2, rel, token_cache[rel]).parse()
    return facts2
