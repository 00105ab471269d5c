/* Native apply loop for repro.bdd.manager.BddManager.
 *
 * Each entry point mirrors one Python recursion of the manager -- _and,
 * _exists, _and_exists, _rename_shift and _restrict, plus the _mk they
 * allocate with -- step for step.  It works on the manager's own
 * containers (the _level/_lo/_hi arrays, _unique, the op caches, _free)
 * and counters (_hits/_misses, _top, _live/_peak_live, the deadline
 * countdown), and it probes, caches and allocates in the same order as the
 * Python code.  A new node takes the last free-listed slot, or else the
 * spare slot at _top; the loop calls back into Python to allocate only when
 * the vectors are full, through BddManager._grow, once per growth step.
 * A native call therefore leaves the manager in exactly the state the
 * Python kernel would: the same edges, node table and counters, so GC,
 * the sanitizer and stats() need not know which kernel ran.
 *
 * A manager that runs this loop keeps its unique table and its and,
 * exists, and_exists, rename and restrict caches in Table, the exact
 * int-keyed hash table defined below.  The loop reads and writes its slots
 * directly; Python code sees a mapping with the dict operations the
 * manager uses.
 *
 * Every table access in the loop walks its key's probe run once.  A lookup
 * that misses remembers the free slot where its walk ended and the table
 * size (Miss); mk writes a new node's key there, and each recursion stores
 * its result there once it is computed.  During a native call a table only
 * receives inserts -- GC and deletion run at safe points -- so the insert
 * rechecks just that the size is unchanged and the slot still free, and
 * otherwise looks the key up again.  Every table therefore holds exactly
 * the slots, entries and counts that a fresh insert of each key would give.
 *
 * manager.py compiles this file at first import and falls back to the
 * Python methods, which stay the oracle, when it cannot (see _load_native
 * there).  Every entry point takes the manager as its first argument.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

/* Packed-key layout, as in manager.py. */
#define EDGE_BITS 24
#define LEVEL_SHIFT 48

/* Negative results: ERR means a Python exception is set; ABORT means the
 * rename rebuild met a clash level or a level-order violation. */
#define ERR (-1)
#define ABORT (-2)

/* -- Table: the exact int-keyed hash table ----------------------------- */

/* A key is a non-negative int below 2**111, held as two words split at
 * LEVEL_SHIFT: for a packed key ((a << 24 | b) << 24) | c that is the a/uid
 * field above and the two 24-bit edge fields below, so wide and_exists
 * keys need no slow path.  A value is an int64.  Open addressing with
 * linear probing; deletion shifts the probe run back, so there are no
 * tombstones.  clear() frees the slot array, as dict.clear() does. */

#define LOW_MASK ((1LL << LEVEL_SHIFT) - 1)
#define EDGE_MASK ((1LL << EDGE_BITS) - 1)
#define EMPTY (-1)
#define MIN_SLOTS 8

typedef struct {
    int64_t high, low;
} Key;

typedef struct {
    int64_t high, low, value; /* high == EMPTY marks a free slot */
} Slot;

typedef struct {
    PyObject_HEAD
    Slot *slots; /* NULL while the table holds no storage */
    size_t mask; /* slot count - 1 */
    Py_ssize_t used;
} Table;

static PyTypeObject TableType;

/* The Python kernel's key ((a << 24 | b) << 24) | c, for c < 2**24. */
static inline Key pack(int64_t a, int64_t b, int64_t c)
{
    Key key = {a | (b >> EDGE_BITS), ((b & EDGE_MASK) << EDGE_BITS) | c};
    return key;
}

static inline size_t slot_index(const Table *t, int64_t high, int64_t low)
{
    uint64_t h = (uint64_t)low ^ ((uint64_t)high * 0x9E3779B97F4A7C15ULL);
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
    return (size_t)(h ^ (h >> 31)) & t->mask;
}

/* The slot holding the key, or the free slot that ends its probe run. */
static inline Slot *find(const Table *t, Key key)
{
    size_t i = slot_index(t, key.high, key.low);
    for (;;) {
        Slot *s = &t->slots[i];
        if (s->high == EMPTY || (s->high == key.high && s->low == key.low))
            return s;
        i = (i + 1) & t->mask;
    }
}

/* Where a lookup that missed ended: the index of the free slot that closes
 * the key's probe run, and the slot count it was found at (0 for a table
 * without storage). */
typedef struct {
    size_t index, size;
} Miss;

/* 1 with *value set when the key is present; 0 with *miss set when not. */
static inline int table_probe(const Table *t, Key key, int64_t *value, Miss *miss)
{
    miss->size = 0;
    if (t->slots == NULL)
        return 0;
    const Slot *s = find(t, key);
    if (s->high != EMPTY) {
        *value = s->value;
        return 1;
    }
    miss->index = (size_t)(s - t->slots);
    miss->size = t->mask + 1;
    return 0;
}

static int table_resize(Table *t, size_t size)
{
    Slot *old = t->slots;
    size_t old_size = old == NULL ? 0 : t->mask + 1;
    Slot *slots = size <= PY_SSIZE_T_MAX / sizeof(Slot) ? PyMem_Malloc(size * sizeof(Slot)) : NULL;
    if (slots == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    memset(slots, 0xff, size * sizeof(Slot));
    t->slots = slots;
    t->mask = size - 1;
    for (size_t i = 0; i < old_size; i++) {
        if (old[i].high != EMPTY) {
            Key key = {old[i].high, old[i].low};
            *find(t, key) = old[i];
        }
    }
    PyMem_Free(old);
    return 0;
}

/* Insert or overwrite, after a table_probe of the key that ended in *miss
 * (a Miss of size 0 when there was no probe).  Between the two the table
 * only receives inserts -- GC and deletion run at safe points, never inside
 * a native call -- so a remembered slot that is still free at an unchanged
 * size is still the first free slot on the key's probe run, and the key is
 * written there without a second walk: the layout is the one a fresh
 * insert would give.  Otherwise (the table was resized, or the key itself
 * was inserted meanwhile) the key is looked up again.  The load stays at
 * most 2/3. */
static int table_insert(Table *t, Key key, int64_t value, const Miss *miss)
{
    size_t size = t->slots == NULL ? 0 : t->mask + 1;
    Slot *s = NULL;
    if (size && miss->size == size && t->slots[miss->index].high == EMPTY) {
        s = &t->slots[miss->index];
    } else if (size) {
        s = find(t, key);
        if (s->high != EMPTY) {
            s->value = value;
            return 0;
        }
    }
    if ((size_t)(t->used + 1) * 3 > size * 2) {
        if (table_resize(t, size ? 2 * size : MIN_SLOTS) < 0)
            return -1;
        s = find(t, key);
    }
    s->high = key.high;
    s->low = key.low;
    s->value = value;
    t->used++;
    return 0;
}

/* 1 when the key was removed, 0 when it was absent. */
static int table_del(Table *t, Key key)
{
    if (t->slots == NULL)
        return 0;
    Slot *hole = find(t, key);
    if (hole->high == EMPTY)
        return 0;
    size_t i = (size_t)(hole - t->slots), j = i;
    for (;;) {
        j = (j + 1) & t->mask;
        Slot *s = &t->slots[j];
        if (s->high == EMPTY)
            break;
        /* The entry at j may fill the hole at i unless its home slot lies
         * cyclically in (i, j]. */
        size_t home = slot_index(t, s->high, s->low);
        if (((j - home) & t->mask) >= ((j - i) & t->mask)) {
            t->slots[i] = *s;
            i = j;
        }
    }
    t->slots[i].high = EMPTY;
    t->used--;
    return 1;
}

static void table_clear(Table *t)
{
    PyMem_Free(t->slots);
    t->slots = NULL;
    t->mask = 0;
    t->used = 0;
}

/* Split a Python int key: 1 when a table can hold it, 0 when it cannot
 * (negative, or 2**111 or more), -1 with TypeError when it is no int. */
static int split_key(PyObject *obj, Key *key)
{
    if (!PyLong_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "Table keys are ints, not %.200s", Py_TYPE(obj)->tp_name);
        return -1;
    }
    int overflow;
    long long value = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (value == -1 && PyErr_Occurred())
        return -1;
    if (!overflow) {
        if (value < 0)
            return 0;
        key->high = value >> LEVEL_SHIFT;
        key->low = value & LOW_MASK;
        return 1;
    }
    if (overflow < 0)
        return 0;
    PyObject *shift = PyLong_FromLong(LEVEL_SHIFT);
    PyObject *top = shift == NULL ? NULL : PyNumber_Rshift(obj, shift);
    Py_XDECREF(shift);
    if (top == NULL)
        return -1;
    key->high = PyLong_AsLongLongAndOverflow(top, &overflow);
    Py_DECREF(top);
    if (key->high == -1 && PyErr_Occurred())
        return -1;
    key->low = (int64_t)(PyLong_AsUnsignedLongLongMask(obj) & LOW_MASK);
    return !overflow;
}

static PyObject *key_object(Key key)
{
    if (key.high < (1LL << (63 - LEVEL_SHIFT)))
        return PyLong_FromLongLong((key.high << LEVEL_SHIFT) | key.low);
    PyObject *high = PyLong_FromLongLong(key.high);
    PyObject *shift = PyLong_FromLong(LEVEL_SHIFT);
    PyObject *low = PyLong_FromLongLong(key.low);
    PyObject *top = high && shift && low ? PyNumber_Lshift(high, shift) : NULL;
    PyObject *result = top == NULL ? NULL : PyNumber_Or(top, low);
    Py_XDECREF(high);
    Py_XDECREF(shift);
    Py_XDECREF(low);
    Py_XDECREF(top);
    return result;
}

static int table_set_object(Table *t, PyObject *k, PyObject *v)
{
    Key key;
    int status = split_key(k, &key);
    if (status == 0)
        PyErr_SetString(PyExc_OverflowError, "Table keys lie in [0, 2**111)");
    if (status <= 0)
        return -1;
    int64_t value = PyLong_AsLongLong(v);
    if (value == -1 && PyErr_Occurred())
        return -1;
    const Miss none = {0, 0}; /* no probe to start from */
    return table_insert(t, key, value, &none);
}

/* Table(items=()): from an iterable of (key, value) pairs. */
static PyObject *Table_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    PyObject *items = NULL;
    static char *names[] = {"items", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "|O:Table", names, &items))
        return NULL;
    Table *t = (Table *)type->tp_alloc(type, 0);
    if (t == NULL || items == NULL)
        return (PyObject *)t;
    PyObject *iterator = PyObject_GetIter(items), *pair;
    if (iterator == NULL) {
        Py_DECREF(t);
        return NULL;
    }
    while ((pair = PyIter_Next(iterator)) != NULL) {
        int status = -1;
        if (PyTuple_Check(pair) && PyTuple_GET_SIZE(pair) == 2)
            status = table_set_object(t, PyTuple_GET_ITEM(pair, 0), PyTuple_GET_ITEM(pair, 1));
        else
            PyErr_SetString(PyExc_TypeError, "Table items must be (key, value) tuples");
        Py_DECREF(pair);
        if (status < 0)
            break;
    }
    Py_DECREF(iterator);
    if (PyErr_Occurred())
        Py_CLEAR(t);
    return (PyObject *)t;
}

static void Table_dealloc(Table *t)
{
    PyMem_Free(t->slots);
    Py_TYPE(t)->tp_free((PyObject *)t);
}

static Py_ssize_t Table_len(Table *t)
{
    return t->used;
}

/* 1 with *value set when the Python key is present, 0 when not, -1 on error. */
static int lookup_object(Table *t, PyObject *k, int64_t *value)
{
    Key key;
    Miss miss;
    int status = split_key(k, &key);
    return status <= 0 ? status : table_probe(t, key, value, &miss);
}

static PyObject *Table_subscript(Table *t, PyObject *k)
{
    int64_t value;
    int found = lookup_object(t, k, &value);
    if (found > 0)
        return PyLong_FromLongLong(value);
    if (found == 0)
        PyErr_SetObject(PyExc_KeyError, k);
    return NULL;
}

static int Table_ass_subscript(Table *t, PyObject *k, PyObject *v)
{
    if (v != NULL)
        return table_set_object(t, k, v);
    Key key;
    int status = split_key(k, &key);
    if (status > 0)
        status = table_del(t, key);
    if (status == 0)
        PyErr_SetObject(PyExc_KeyError, k);
    return status > 0 ? 0 : -1;
}

static int Table_contains(Table *t, PyObject *k)
{
    int64_t value;
    return lookup_object(t, k, &value);
}

static PyObject *Table_get(Table *t, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 1 || nargs > 2) {
        PyErr_Format(PyExc_TypeError, "get expected 1 or 2 arguments, got %zd", nargs);
        return NULL;
    }
    int64_t value;
    int found = lookup_object(t, args[0], &value);
    if (found > 0)
        return PyLong_FromLongLong(value);
    if (found < 0)
        return NULL;
    PyObject *fallback = nargs == 2 ? args[1] : Py_None;
    Py_INCREF(fallback);
    return fallback;
}

/* The keys, or the (key, value) pairs, as a list in slot order. */
static PyObject *table_list(Table *t, int pairs)
{
    PyObject *list = PyList_New(t->used);
    Py_ssize_t n = 0;
    for (size_t i = 0; list != NULL && t->slots != NULL && i <= t->mask; i++) {
        const Slot *s = &t->slots[i];
        if (s->high == EMPTY)
            continue;
        Key key = {s->high, s->low};
        PyObject *item = key_object(key);
        if (item != NULL && pairs) {
            PyObject *value = PyLong_FromLongLong(s->value);
            PyObject *pair = value == NULL ? NULL : PyTuple_Pack(2, item, value);
            Py_XDECREF(value);
            Py_SETREF(item, pair);
        }
        if (item == NULL)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, n++, item);
    }
    return list;
}

static PyObject *Table_items(Table *t, PyObject *unused)
{
    return table_list(t, 1);
}

/* Iterates over a snapshot of the keys, so the table may change meanwhile. */
static PyObject *Table_iter(Table *t)
{
    PyObject *keys = table_list(t, 0);
    PyObject *iterator = keys == NULL ? NULL : PyObject_GetIter(keys);
    Py_XDECREF(keys);
    return iterator;
}

static PyObject *Table_clear(Table *t, PyObject *unused)
{
    table_clear(t);
    Py_RETURN_NONE;
}

static PyObject *Table_sizeof(Table *t, PyObject *unused)
{
    size_t size = sizeof(Table) + (t->slots == NULL ? 0 : (t->mask + 1) * sizeof(Slot));
    return PyLong_FromSize_t(size);
}

/* 1 when the dict other holds exactly the entries of t, 0 when not, -1
 * on error. */
static int table_equals(Table *t, PyObject *other)
{
    if (PyDict_GET_SIZE(other) != t->used)
        return 0;
    PyObject *k, *v;
    Py_ssize_t pos = 0;
    while (PyDict_Next(other, &pos, &k, &v)) {
        int64_t value;
        int overflow;
        if (!PyLong_Check(k) || !PyLong_Check(v) || lookup_object(t, k, &value) <= 0
            || PyLong_AsLongLongAndOverflow(v, &overflow) != value || overflow)
            return PyErr_Occurred() ? -1 : 0;
    }
    return 1;
}

static PyObject *Table_richcompare(Table *t, PyObject *other, int op)
{
    if ((op != Py_EQ && op != Py_NE) || !PyDict_Check(other))
        Py_RETURN_NOTIMPLEMENTED;
    int equal = table_equals(t, other);
    if (equal < 0)
        return NULL;
    return PyBool_FromLong(equal == (op == Py_EQ));
}

static PyObject *Table_repr(Table *t)
{
    PyObject *items = table_list(t, 1);
    PyObject *dict = items == NULL ? NULL : PyDict_New();
    if (dict != NULL && PyDict_MergeFromSeq2(dict, items, 1) < 0)
        Py_CLEAR(dict);
    PyObject *repr = dict == NULL ? NULL : PyUnicode_FromFormat("Table(%R)", dict);
    Py_XDECREF(items);
    Py_XDECREF(dict);
    return repr;
}

/* validate(): raise ValueError unless every entry is reached from its home
 * slot without crossing a free slot -- an entry past a free slot on its
 * key's probe run can never be found again -- and used counts the occupied
 * slots.  Each run of occupied slots is walked once, from a free slot. */
static PyObject *Table_validate(Table *t, PyObject *unused)
{
    size_t size = t->slots == NULL ? 0 : t->mask + 1, start = 0, occupied = 0;
    while (start < size && t->slots[start].high != EMPTY)
        start++;
    if (size && start == size) {
        PyErr_SetString(PyExc_ValueError, "Table has no free slot");
        return NULL;
    }
    size_t run = 0; /* occupied slots since the last free one */
    for (size_t step = 1; step <= size; step++) {
        size_t i = (start + step) & t->mask;
        const Slot *s = &t->slots[i];
        if (s->high == EMPTY) {
            run = 0;
            continue;
        }
        occupied++;
        run++;
        size_t distance = (i - slot_index(t, s->high, s->low)) & t->mask;
        if (distance >= run) {
            PyErr_Format(PyExc_ValueError,
                         "Table entry in slot %zu lies %zu slots from its home, past a free slot",
                         i, distance);
            return NULL;
        }
    }
    if ((size_t)t->used != occupied) {
        PyErr_Format(PyExc_ValueError, "Table counts %zd entries in %zu occupied slots", t->used,
                     occupied);
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyMappingMethods Table_mapping = {
    (lenfunc)Table_len, (binaryfunc)Table_subscript, (objobjargproc)Table_ass_subscript};

static PySequenceMethods Table_sequence = {.sq_contains = (objobjproc)Table_contains};

static PyMethodDef Table_methods[] = {
    {"get", (PyCFunction)(void (*)(void))Table_get, METH_FASTCALL,
     "get(key, default=None): the value of key, or default"},
    {"items", (PyCFunction)Table_items, METH_NOARGS, "items(): a list of (key, value) pairs"},
    {"clear", (PyCFunction)Table_clear, METH_NOARGS, "clear(): drop every entry and the slot array"},
    {"__sizeof__", (PyCFunction)Table_sizeof, METH_NOARGS, "size of the table in bytes"},
    {"validate", (PyCFunction)Table_validate, METH_NOARGS,
     "validate(): raise ValueError unless every entry is reachable on its probe run and\n"
     "the entry count matches the occupied slots"},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject TableType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.bdd._native.Table",
    .tp_basicsize = sizeof(Table),
    .tp_dealloc = (destructor)Table_dealloc,
    .tp_repr = (reprfunc)Table_repr,
    .tp_as_sequence = &Table_sequence,
    .tp_as_mapping = &Table_mapping,
    .tp_hash = PyObject_HashNotImplemented,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Table(items=()): an exact hash table from int keys in [0, 2**111) to int64 values,\n"
              "built from an iterable of (key, value) pairs",
    .tp_richcompare = (richcmpfunc)Table_richcompare,
    .tp_iter = (getiterfunc)Table_iter,
    .tp_methods = Table_methods,
    .tp_new = Table_new,
};

enum { AND, EXISTS, AND_EXISTS, RENAME, RESTRICT, NOPS };

static const char *const OP_NAMES[NOPS] = {
    "and", "exists", "and_exists", "rename", "restrict"};
static const char *const CACHE_NAMES[NOPS] = {
    "_and_cache", "_exists_cache", "_and_exists_cache", "_rename_cache",
    "_restrict_cache"};
static const char *const VECTOR_NAMES[3] = {"_level", "_lo", "_hi"};

/* Interned attribute names. */
static PyObject *s_op[NOPS], *s_cache[NOPS], *s_vector[3];
static PyObject *s_hits, *s_misses, *s_unique, *s_free, *s_live, *s_peak_live;
static PyObject *s_node_budget, *s_deadline, *s_countdown, *s_interval;
static PyObject *s_check_deadline, *s_grow, *s_top, *s_uid, *s_last, *s_mask;
static PyObject *s_table, *s_max_index, *s_budget_error, *s_table_full;
static PyObject *s_consumed, *s_budget;

/* repro.bdd.manager's namespace (set by bind()): MAX_NODE_INDEX, the error
 * class and _node_table_full are read from it when they are needed, so a
 * patched module global binds both kernels alike. */
static PyObject *manager_globals;

typedef struct {
    PyObject *mgr;
    PyObject *vector[3];
    Py_buffer view[3];
    int held;
    int64_t *level, *lo, *hi;
    Py_ssize_t capacity;
    Table *cache[NOPS];
    long long hits[NOPS], misses[NOPS];
    /* Allocation state, loaded by the first allocation of the call. */
    int alloc;
    Table *unique;
    PyObject *free_list;
    long long top, live, peak, countdown, interval, budget, max_index;
    int has_budget, has_deadline;
    /* The rename/restrict table of the call, when there is one. */
    Py_buffer table_view;
    int table_held;
} Ctx;

typedef struct {
    long long uid, last;
    const char *mask;
} Cube;

typedef struct {
    long long uid;
    const int64_t *table;
    Py_ssize_t size;
} Map;

/* -- node vectors ------------------------------------------------------ */

static void release_vectors(Ctx *c)
{
    if (c->held) {
        for (int i = 0; i < 3; i++)
            PyBuffer_Release(&c->view[i]);
        c->held = 0;
    }
}

static int hold_vectors(Ctx *c)
{
    for (int i = 0; i < 3; i++) {
        if (PyObject_GetBuffer(c->vector[i], &c->view[i], PyBUF_WRITABLE) < 0) {
            while (i--)
                PyBuffer_Release(&c->view[i]);
            return -1;
        }
    }
    c->held = 1;
    if (c->view[0].itemsize != 8 || c->view[1].itemsize != 8
        || c->view[2].itemsize != 8 || c->view[0].len != c->view[1].len
        || c->view[0].len != c->view[2].len) {
        release_vectors(c);
        PyErr_SetString(PyExc_TypeError, "node vectors must be equal-length int64 arrays");
        return -1;
    }
    c->level = (int64_t *)c->view[0].buf;
    c->lo = (int64_t *)c->view[1].buf;
    c->hi = (int64_t *)c->view[2].buf;
    c->capacity = c->view[0].len / 8;
    return 0;
}

/* BddManager._grow: extend the vectors by spare slots.  An exported buffer
 * pins an array's size, so the views are dropped around the call and taken
 * again afterwards. */
static int grow(Ctx *c)
{
    release_vectors(c);
    PyObject *done = PyObject_CallMethodNoArgs(c->mgr, s_grow);
    if (done == NULL)
        return -1;
    Py_DECREF(done);
    return hold_vectors(c);
}

/* -- call context ------------------------------------------------------ */

static int ctx_open(Ctx *c, PyObject *mgr)
{
    memset(c, 0, sizeof(*c));
    c->mgr = mgr;
    for (int i = 0; i < 3; i++) {
        c->vector[i] = PyObject_GetAttr(mgr, s_vector[i]);
        if (c->vector[i] == NULL)
            return -1;
    }
    return hold_vectors(c);
}

static long long attr_ll(PyObject *obj, PyObject *name)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value == NULL)
        return -1;
    long long result = PyLong_AsLongLong(value);
    Py_DECREF(value);
    return result;
}

/* The manager's Table attribute name (a new reference), or NULL. */
static Table *table_attr(PyObject *mgr, PyObject *name)
{
    PyObject *obj = PyObject_GetAttr(mgr, name);
    if (obj != NULL && !Py_IS_TYPE(obj, &TableType)) {
        PyErr_Format(PyExc_TypeError, "%U must be a Table, not %.200s", name, Py_TYPE(obj)->tp_name);
        Py_CLEAR(obj);
    }
    return (Table *)obj;
}

static int load_alloc(Ctx *c)
{
    PyObject *value;
    c->unique = table_attr(c->mgr, s_unique);
    if (c->unique == NULL)
        return -1;
    c->free_list = PyObject_GetAttr(c->mgr, s_free);
    if (c->free_list == NULL)
        return -1;
    if (!PyList_CheckExact(c->free_list)) {
        PyErr_SetString(PyExc_TypeError, "free list must be a list");
        return -1;
    }
    c->top = attr_ll(c->mgr, s_top);
    c->live = attr_ll(c->mgr, s_live);
    c->peak = attr_ll(c->mgr, s_peak_live);
    c->countdown = attr_ll(c->mgr, s_countdown);
    c->interval = attr_ll(c->mgr, s_interval);
    if (PyErr_Occurred())
        return -1;
    value = PyObject_GetAttr(c->mgr, s_node_budget);
    if (value == NULL)
        return -1;
    c->has_budget = value != Py_None;
    c->budget = c->has_budget ? PyLong_AsLongLong(value) : 0;
    Py_DECREF(value);
    if (PyErr_Occurred())
        return -1;
    value = PyObject_GetAttr(c->mgr, s_deadline);
    if (value == NULL)
        return -1;
    c->has_deadline = value != Py_None;
    Py_DECREF(value);
    value = PyDict_GetItemWithError(manager_globals, s_max_index);
    if (value == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_RuntimeError, "MAX_NODE_INDEX is not defined");
        return -1;
    }
    c->max_index = PyLong_AsLongLong(value);
    if (PyErr_Occurred())
        return -1;
    c->alloc = 1;
    return 0;
}

static int set_ll(PyObject *obj, PyObject *name, long long value)
{
    PyObject *boxed = PyLong_FromLongLong(value);
    if (boxed == NULL)
        return -1;
    int status = PyObject_SetAttr(obj, name, boxed);
    Py_DECREF(boxed);
    return status;
}

static int add_count(PyObject *counts, PyObject *op, long long delta)
{
    PyObject *old = PyDict_GetItemWithError(counts, op);
    if (old == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetObject(PyExc_KeyError, op);
        return -1;
    }
    long long base = PyLong_AsLongLong(old);
    if (base == -1 && PyErr_Occurred())
        return -1;
    PyObject *boxed = PyLong_FromLongLong(base + delta);
    if (boxed == NULL)
        return -1;
    int status = PyDict_SetItem(counts, op, boxed);
    Py_DECREF(boxed);
    return status;
}

/* Write the call's counters back to the manager and free the context. */
static int ctx_flush(Ctx *c)
{
    int status = 0;
    PyObject *counters[2] = {NULL, NULL};
    long long *deltas[2] = {c->hits, c->misses};
    PyObject *names[2] = {s_hits, s_misses};
    for (int k = 0; k < 2; k++) {
        for (int op = 0; op < NOPS; op++) {
            if (!deltas[k][op])
                continue;
            if (counters[k] == NULL)
                counters[k] = PyObject_GetAttr(c->mgr, names[k]);
            if (counters[k] == NULL || add_count(counters[k], s_op[op], deltas[k][op]) < 0) {
                status = -1;
                break;
            }
        }
        Py_XDECREF(counters[k]);
    }
    if (c->alloc) {
        if (set_ll(c->mgr, s_top, c->top) < 0 || set_ll(c->mgr, s_live, c->live) < 0
            || set_ll(c->mgr, s_peak_live, c->peak) < 0
            || set_ll(c->mgr, s_countdown, c->countdown) < 0)
            status = -1;
    }
    return status;
}

static PyObject *ctx_close(Ctx *c, long long result)
{
    PyObject *type, *value, *traceback;
    PyErr_Fetch(&type, &value, &traceback);
    release_vectors(c);
    if (c->table_held)
        PyBuffer_Release(&c->table_view);
    int status = ctx_flush(c);
    for (int i = 0; i < 3; i++)
        Py_XDECREF(c->vector[i]);
    for (int op = 0; op < NOPS; op++)
        Py_XDECREF((PyObject *)c->cache[op]);
    Py_XDECREF((PyObject *)c->unique);
    Py_XDECREF(c->free_list);
    if (type != NULL) {
        /* The first error wins over any raised while flushing. */
        PyErr_Clear();
        PyErr_Restore(type, value, traceback);
        return NULL;
    }
    if (status < 0 || result == ERR)
        return NULL;
    return PyLong_FromLongLong(result == ABORT ? -1 : result);
}

/* -- op caches --------------------------------------------------------- */

/* 1 with *out set on a hit; 0 on a miss, with *miss set for cache_store;
 * -1 on error.  Counts like the Python kernel's probes. */
static int cache_probe(Ctx *c, int op, Key key, int64_t *out, Miss *miss)
{
    if (c->cache[op] == NULL && (c->cache[op] = table_attr(c->mgr, s_cache[op])) == NULL)
        return -1;
    if (table_probe(c->cache[op], key, out, miss)) {
        c->hits[op]++;
        return 1;
    }
    c->misses[op]++;
    return 0;
}

/* Cache a result computed after cache_probe missed with *miss; the result,
 * or a negative one as is. */
static int64_t cache_store(Ctx *c, int op, Key key, const Miss *miss, int64_t result)
{
    if (result >= 0 && table_insert(c->cache[op], key, result, miss) < 0)
        return ERR;
    return result;
}

/* -- node creation ----------------------------------------------------- */

static int raise_from(PyObject *error)
{
    if (error != NULL) {
        PyErr_SetObject((PyObject *)Py_TYPE(error), error);
        Py_DECREF(error);
    }
    return -1;
}

static int raise_budget(Ctx *c)
{
    PyObject *cls = PyDict_GetItemWithError(manager_globals, s_budget_error);
    if (cls == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_RuntimeError, "NodeBudgetExceeded is not defined");
        return -1;
    }
    PyObject *kwargs = Py_BuildValue("{OLOL}", s_consumed, c->live, s_budget, c->budget);
    if (kwargs == NULL)
        return -1;
    PyObject *args = PyTuple_New(0);
    PyObject *error = args ? PyObject_Call(cls, args, kwargs) : NULL;
    Py_XDECREF(args);
    Py_DECREF(kwargs);
    return raise_from(error);
}

static int raise_table_full(int64_t index)
{
    PyObject *make = PyDict_GetItemWithError(manager_globals, s_table_full);
    if (make == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_RuntimeError, "_node_table_full is not defined");
        return -1;
    }
    PyObject *boxed = PyLong_FromLongLong(index);
    if (boxed == NULL)
        return -1;
    PyObject *error = PyObject_CallOneArg(make, boxed);
    Py_DECREF(boxed);
    return raise_from(error);
}

/* BddManager._mk: find or create (level, lo, hi); a signed edge or ERR. */
static int64_t mk(Ctx *c, int64_t level, int64_t lo, int64_t hi)
{
    if (lo == hi)
        return lo;
    int64_t sign = hi & 1;
    if (sign) {
        lo ^= 1;
        hi ^= 1;
    }
    if (!c->alloc && load_alloc(c) < 0)
        return ERR;
    Key key = pack(level, lo, hi);
    int64_t index;
    Miss miss;
    if (table_probe(c->unique, key, &index, &miss))
        return (index << 1) | sign;
    Py_ssize_t free_count = PyList_GET_SIZE(c->free_list);
    if (free_count) {
        index = PyLong_AsLongLong(PyList_GET_ITEM(c->free_list, free_count - 1));
        if ((index == -1 && PyErr_Occurred())
            || PyList_SetSlice(c->free_list, free_count - 1, free_count, NULL) < 0)
            return ERR;
    } else {
        index = c->top;
        if (index > c->max_index) {
            raise_table_full(index);
            return ERR;
        }
        if (index == c->capacity && grow(c) < 0)
            return ERR;
        c->top = index + 1;
    }
    c->level[index] = level;
    c->lo[index] = lo;
    c->hi[index] = hi;
    if (table_insert(c->unique, key, index, &miss) < 0)
        return ERR;
    c->live++;
    if (c->live > c->peak)
        c->peak = c->live;
    if (c->has_budget && c->live > c->budget) {
        raise_budget(c);
        return ERR;
    }
    if (c->has_deadline) {
        c->countdown--;
        if (c->countdown <= 0) {
            c->countdown = c->interval;
            PyObject *done = PyObject_CallMethodNoArgs(c->mgr, s_check_deadline);
            if (done == NULL)
                return ERR;
            Py_DECREF(done);
        }
    }
    return (index << 1) | sign;
}

/* -- apply recursions -------------------------------------------------- */

/* Node vectors may move whenever a callee allocates, so they are always
 * read through c, never through a pointer cached across a call.  A
 * negative result (ERR, or ABORT from the rename rebuild) is passed up
 * as is. */

static void cofactors(Ctx *c, int64_t edge, int64_t level, int64_t *lo, int64_t *hi)
{
    int64_t index = edge >> 1;
    if (c->level[index] == level) {
        int64_t sign = edge & 1;
        *lo = c->lo[index] ^ sign;
        *hi = c->hi[index] ^ sign;
    } else {
        *lo = *hi = edge;
    }
}

static int64_t and_rec(Ctx *c, int64_t f, int64_t g)
{
    if (f == g || g == 1)
        return f;
    if (f == 1)
        return g;
    if (f == 0 || g == 0 || f == (g ^ 1))
        return 0;
    if (f > g) {
        int64_t swap = f;
        f = g;
        g = swap;
    }
    Key key = pack(0, f, g);
    int64_t result;
    Miss miss;
    int hit = cache_probe(c, AND, key, &result, &miss);
    if (hit)
        return hit < 0 ? ERR : result;
    int64_t level_f = c->level[f >> 1], level_g = c->level[g >> 1];
    int64_t level = level_f < level_g ? level_f : level_g;
    int64_t f_lo, f_hi, g_lo, g_hi;
    cofactors(c, f, level, &f_lo, &f_hi);
    cofactors(c, g, level, &g_lo, &g_hi);
    int64_t lo = and_rec(c, f_lo, g_lo);
    if (lo < 0)
        return lo;
    int64_t hi = and_rec(c, f_hi, g_hi);
    if (hi < 0)
        return hi;
    return cache_store(c, AND, key, &miss, lo == hi ? lo : mk(c, level, lo, hi));
}

static int64_t or_rec(Ctx *c, int64_t f, int64_t g)
{
    int64_t result = and_rec(c, f ^ 1, g ^ 1);
    return result < 0 ? result : result ^ 1;
}

static int64_t exists_rec(Ctx *c, int64_t f, const Cube *q)
{
    if (f <= 1)
        return f;
    int64_t index = f >> 1;
    int64_t level = c->level[index];
    if (level > q->last)
        return f;
    Key key = pack(0, q->uid, f);
    int64_t result;
    Miss miss;
    int hit = cache_probe(c, EXISTS, key, &result, &miss);
    if (hit)
        return hit < 0 ? ERR : result;
    int64_t sign = f & 1;
    int64_t lo = exists_rec(c, c->lo[index] ^ sign, q);
    if (lo < 0)
        return lo;
    if (q->mask[level] && lo == 1)
        return cache_store(c, EXISTS, key, &miss, 1);
    int64_t hi = exists_rec(c, c->hi[index] ^ sign, q);
    if (hi < 0)
        return hi;
    return cache_store(c, EXISTS, key, &miss,
                       q->mask[level] ? or_rec(c, lo, hi) : mk(c, level, lo, hi));
}

static int64_t and_exists_rec(Ctx *c, int64_t f, int64_t g, const Cube *q)
{
    if (f == 0 || g == 0 || f == (g ^ 1))
        return 0;
    if (f == 1 && g == 1)
        return 1;
    if (f == 1)
        return exists_rec(c, g, q);
    if (g == 1 || f == g)
        return exists_rec(c, f, q);
    if (f > g) {
        int64_t swap = f;
        f = g;
        g = swap;
    }
    int64_t level_f = c->level[f >> 1], level_g = c->level[g >> 1];
    int64_t level = level_f < level_g ? level_f : level_g;
    if (level > q->last)
        return and_rec(c, f, g);
    Key key = pack(q->uid, f, g);
    int64_t result;
    Miss miss;
    int hit = cache_probe(c, AND_EXISTS, key, &result, &miss);
    if (hit)
        return hit < 0 ? ERR : result;
    int64_t f_lo, f_hi, g_lo, g_hi;
    cofactors(c, f, level, &f_lo, &f_hi);
    cofactors(c, g, level, &g_lo, &g_hi);
    int64_t lo = and_exists_rec(c, f_lo, g_lo, q);
    if (lo < 0)
        return lo;
    if (q->mask[level] && lo == 1)
        return cache_store(c, AND_EXISTS, key, &miss, 1);
    int64_t hi = and_exists_rec(c, f_hi, g_hi, q);
    if (hi < 0)
        return hi;
    return cache_store(c, AND_EXISTS, key, &miss,
                       q->mask[level] ? or_rec(c, lo, hi) : mk(c, level, lo, hi));
}

/* BddManager._rename_shift: the structural rebuild; ABORT when a node sits
 * at a clash level or would land at or below one of its rebuilt children. */
static int64_t rename_rec(Ctx *c, int64_t f, const Map *m)
{
    if (f <= 1)
        return f;
    int64_t sign = f & 1;
    f ^= sign;
    Key key = pack(0, m->uid, f);
    int64_t result;
    Miss miss;
    int hit = cache_probe(c, RENAME, key, &result, &miss);
    if (hit)
        return hit < 0 ? ERR : result ^ sign;
    int64_t index = f >> 1;
    int64_t level = c->level[index];
    int64_t target = level < m->size ? m->table[level] : level;
    if (target < 0)
        return ABORT;
    int64_t lo = rename_rec(c, c->lo[index], m);
    if (lo < 0)
        return lo;
    int64_t hi = rename_rec(c, c->hi[index], m);
    if (hi < 0)
        return hi;
    if (target >= c->level[lo >> 1] || target >= c->level[hi >> 1])
        return ABORT;
    result = cache_store(c, RENAME, key, &miss, mk(c, target, lo, hi));
    return result < 0 ? result : result ^ sign;
}

static int64_t restrict_rec(Ctx *c, int64_t f, const Map *m)
{
    if (f <= 1)
        return f;
    int64_t sign = f & 1;
    f ^= sign;
    Key key = pack(0, m->uid, f);
    int64_t result;
    Miss miss;
    int hit = cache_probe(c, RESTRICT, key, &result, &miss);
    if (hit)
        return hit < 0 ? ERR : result ^ sign;
    int64_t index = f >> 1;
    int64_t level = c->level[index];
    int64_t fixed = level < m->size ? m->table[level] : -1;
    if (fixed >= 0) {
        result = restrict_rec(c, fixed ? c->hi[index] : c->lo[index], m);
    } else {
        int64_t lo = restrict_rec(c, c->lo[index], m);
        if (lo < 0)
            return lo;
        int64_t hi = restrict_rec(c, c->hi[index], m);
        if (hi < 0)
            return hi;
        result = mk(c, level, lo, hi);
    }
    result = cache_store(c, RESTRICT, key, &miss, result);
    return result < 0 ? result : result ^ sign;
}

/* -- entry points ------------------------------------------------------ */

static int edge_arg(PyObject *arg, int64_t *edge)
{
    *edge = PyLong_AsLongLong(arg);
    return *edge == -1 && PyErr_Occurred() ? -1 : 0;
}

/* The recursions index the node vectors with the caller's edges. */
static int check_edges(const Ctx *c, int64_t f, int64_t g)
{
    if (f >= 0 && g >= 0 && (f >> 1) < c->capacity && (g >> 1) < c->capacity)
        return 0;
    PyErr_SetString(PyExc_IndexError, "edge outside the node table");
    return -1;
}

static int check_nargs(Py_ssize_t nargs, Py_ssize_t expected, const char *name)
{
    if (nargs == expected)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)", name, expected, nargs);
    return -1;
}

static int read_cube(PyObject *obj, Cube *q)
{
    PyObject *mask = PyObject_GetAttr(obj, s_mask);
    if (mask == NULL)
        return -1;
    if (!PyBytes_Check(mask)) {
        Py_DECREF(mask);
        PyErr_SetString(PyExc_TypeError, "cube mask must be bytes");
        return -1;
    }
    /* The cube keeps its mask alive for the whole call. */
    q->mask = PyBytes_AS_STRING(mask);
    Py_ssize_t size = PyBytes_GET_SIZE(mask);
    Py_DECREF(mask);
    q->uid = attr_ll(obj, s_uid);
    q->last = attr_ll(obj, s_last);
    if (PyErr_Occurred())
        return -1;
    if (q->last < 0 || q->last >= size) {
        PyErr_SetString(PyExc_ValueError, "cube mask does not cover its last level");
        return -1;
    }
    return 0;
}

static int read_map(Ctx *c, PyObject *obj, Map *m)
{
    m->uid = attr_ll(obj, s_uid);
    if (m->uid == -1 && PyErr_Occurred())
        return -1;
    PyObject *table = PyObject_GetAttr(obj, s_table);
    if (table == NULL)
        return -1;
    int status = PyObject_GetBuffer(table, &c->table_view, PyBUF_SIMPLE);
    Py_DECREF(table);
    if (status < 0)
        return -1;
    c->table_held = 1;
    if (c->table_view.itemsize != 8) {
        PyErr_SetString(PyExc_TypeError, "map table must be an int64 array");
        return -1;
    }
    m->table = (const int64_t *)c->table_view.buf;
    m->size = c->table_view.len / 8;
    return 0;
}

static PyObject *native_and(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    int64_t f, g;
    Ctx c;
    if (check_nargs(nargs, 3, "and_") < 0 || edge_arg(args[1], &f) < 0
        || edge_arg(args[2], &g) < 0)
        return NULL;
    if (ctx_open(&c, args[0]) < 0 || check_edges(&c, f, g) < 0)
        return ctx_close(&c, ERR);
    return ctx_close(&c, and_rec(&c, f, g));
}

static PyObject *native_exists(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    int64_t f;
    Cube q;
    Ctx c;
    if (check_nargs(nargs, 3, "exists") < 0 || edge_arg(args[1], &f) < 0
        || read_cube(args[2], &q) < 0)
        return NULL;
    if (ctx_open(&c, args[0]) < 0 || check_edges(&c, f, 0) < 0)
        return ctx_close(&c, ERR);
    return ctx_close(&c, exists_rec(&c, f, &q));
}

static PyObject *native_and_exists(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    int64_t f, g;
    Cube q;
    Ctx c;
    if (check_nargs(nargs, 4, "and_exists") < 0 || edge_arg(args[1], &f) < 0
        || edge_arg(args[2], &g) < 0 || read_cube(args[3], &q) < 0)
        return NULL;
    if (ctx_open(&c, args[0]) < 0 || check_edges(&c, f, g) < 0)
        return ctx_close(&c, ERR);
    return ctx_close(&c, and_exists_rec(&c, f, g, &q));
}

static PyObject *native_rename_shift(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    int64_t f;
    Map m;
    Ctx c;
    if (check_nargs(nargs, 3, "rename_shift") < 0 || edge_arg(args[1], &f) < 0)
        return NULL;
    if (ctx_open(&c, args[0]) < 0 || check_edges(&c, f, 0) < 0
        || read_map(&c, args[2], &m) < 0)
        return ctx_close(&c, ERR);
    return ctx_close(&c, rename_rec(&c, f, &m));
}

static PyObject *native_restrict(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    int64_t f;
    Map m;
    Ctx c;
    if (check_nargs(nargs, 3, "restrict") < 0 || edge_arg(args[1], &f) < 0)
        return NULL;
    if (ctx_open(&c, args[0]) < 0 || check_edges(&c, f, 0) < 0
        || read_map(&c, args[2], &m) < 0)
        return ctx_close(&c, ERR);
    return ctx_close(&c, restrict_rec(&c, f, &m));
}

static PyObject *native_bind(PyObject *module, PyObject *namespace)
{
    if (!PyDict_Check(namespace)) {
        PyErr_SetString(PyExc_TypeError, "bind() takes the manager module's globals");
        return NULL;
    }
    Py_INCREF(namespace);
    Py_XSETREF(manager_globals, namespace);
    Py_RETURN_NONE;
}

static PyMethodDef native_methods[] = {
    {"and_", (PyCFunction)(void (*)(void))native_and, METH_FASTCALL,
     "and_(manager, f, g): BddManager._and"},
    {"exists", (PyCFunction)(void (*)(void))native_exists, METH_FASTCALL,
     "exists(manager, f, cube): BddManager._exists"},
    {"and_exists", (PyCFunction)(void (*)(void))native_and_exists, METH_FASTCALL,
     "and_exists(manager, f, g, cube): BddManager._and_exists"},
    {"rename_shift", (PyCFunction)(void (*)(void))native_rename_shift, METH_FASTCALL,
     "rename_shift(manager, f, rmap): BddManager._rename_shift (-1 on abort)"},
    {"restrict", (PyCFunction)(void (*)(void))native_restrict, METH_FASTCALL,
     "restrict(manager, f, fmap): BddManager._restrict"},
    {"bind", native_bind, METH_O,
     "bind(globals): the manager module namespace the kernel reads its bounds and errors from"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT, "_native", "Native apply loop for repro.bdd.manager.", -1,
    native_methods,
};

static int intern(PyObject **slot, const char *name)
{
    *slot = PyUnicode_InternFromString(name);
    return *slot == NULL ? -1 : 0;
}

PyMODINIT_FUNC PyInit__native(void)
{
    for (int op = 0; op < NOPS; op++) {
        if (intern(&s_op[op], OP_NAMES[op]) < 0 || intern(&s_cache[op], CACHE_NAMES[op]) < 0)
            return NULL;
    }
    for (int i = 0; i < 3; i++) {
        if (intern(&s_vector[i], VECTOR_NAMES[i]) < 0)
            return NULL;
    }
    if (intern(&s_hits, "_hits") < 0 || intern(&s_misses, "_misses") < 0
        || intern(&s_unique, "_unique") < 0 || intern(&s_free, "_free") < 0
        || intern(&s_live, "_live") < 0 || intern(&s_peak_live, "_peak_live") < 0
        || intern(&s_node_budget, "_node_budget") < 0 || intern(&s_deadline, "_deadline") < 0
        || intern(&s_countdown, "_deadline_countdown") < 0
        || intern(&s_interval, "_deadline_interval") < 0
        || intern(&s_check_deadline, "_check_deadline") < 0 || intern(&s_grow, "_grow") < 0
        || intern(&s_top, "_top") < 0
        || intern(&s_uid, "uid") < 0 || intern(&s_last, "last") < 0
        || intern(&s_mask, "mask") < 0 || intern(&s_table, "table") < 0
        || intern(&s_max_index, "MAX_NODE_INDEX") < 0
        || intern(&s_budget_error, "NodeBudgetExceeded") < 0
        || intern(&s_table_full, "_node_table_full") < 0 || intern(&s_consumed, "consumed") < 0
        || intern(&s_budget, "budget") < 0)
        return NULL;
    if (PyType_Ready(&TableType) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&native_module);
    if (module == NULL)
        return NULL;
    Py_INCREF(&TableType);
    if (PyModule_AddObject(module, "Table", (PyObject *)&TableType) < 0) {
        Py_DECREF(&TableType);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
